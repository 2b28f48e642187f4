// Incremental deadline-slack engine for RefineProfile (Algorithm 3).
//
// RefineProfile asks, once per candidate (segment, machine) pair, for the
// deadline slack of (task j, machine r): min_{i >= j} (d_i − prefix_i(r)).
// Computing that from scratch is an O(n) column scan, and the scan used to
// run for every candidate even when no transfer had touched machine r since
// the last scan — the dominant cost of FR-OPT on large n (FrOptCounters'
// refineSeconds).
//
// The engine keeps, per machine, the exact leaf slacks v_i = d_i −
// prefix_i(r) in a SuffixSlackTree (the same tree Algorithm 1 uses) plus a
// (task, machine)-keyed memo of answered queries, both guarded by a
// per-machine version counter. A transfer between two machines bumps only
// those two machines' versions: every other machine's memoised slacks and
// tree stay valid. Stale trees are rebuilt lazily, on the first query after
// an invalidation.
//
// Bit-identity contract: slack() returns exactly what the scratch column
// scan returns, bit for bit. The tree's leaves are filled from the same
// left-to-right prefix summation the scan performs, the tree is only ever
// rebuilt (never lazily shifted with suffixAdd, whose internal add chains
// would re-associate the sums), and a suffix *minimum* over unmodified
// leaves is exact in floating point. The scan is the test oracle in
// tests/refine_linear_scan_reference.h, and the differential harness in
// tests/sched_slack_cache_test.cpp enforces the contract over the shared
// corpus.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/schedule.h"
#include "sched/suffix_slack_tree.h"
#include "sched/types.h"

namespace dsct {

/// Observability counters for one engine (surfaced through RefineStats and
/// FrOptCounters; printed by bench/ablation_refine and bench/fig4a/fig4b).
struct SlackCounters {
  long long queries = 0;        ///< slack() calls
  long long hits = 0;           ///< served from the (task, machine) memo
  long long rebuilds = 0;       ///< per-machine column recomputations
  long long invalidations = 0;  ///< machine version bumps (2 per transfer)

  void add(const SlackCounters& other) {
    queries += other.queries;
    hits += other.hits;
    rebuilds += other.rebuilds;
    invalidations += other.invalidations;
  }
};

class SlackEngine {
 public:
  SlackEngine(const Instance& inst, const FractionalSchedule& schedule);

  SlackEngine(const SlackEngine&) = delete;
  SlackEngine& operator=(const SlackEngine&) = delete;

  /// Deadline slack of (task, machine): the largest amount by which
  /// t_{task,machine} can grow without violating any deadline at or after
  /// `task` on `machine`. Bit-identical to the scratch scan.
  double slack(int task, int machine);

  /// Notify the engine that a transfer moved time between
  /// (growTask, growMachine) and (shrinkTask, shrinkMachine); invalidates
  /// exactly those two machines' slacks.
  void onTransfer(int growMachine, int shrinkMachine);

  const SlackCounters& counters() const { return counters_; }

 private:
  void rebuildMachine(int machine);

  const Instance& inst_;
  const FractionalSchedule& schedule_;

  std::vector<SuffixSlackTree> trees_;          ///< one per machine
  std::vector<std::uint64_t> machineVersion_;   ///< bumped by onTransfer
  std::vector<std::uint64_t> treeVersion_;      ///< version trees_ reflects
  std::vector<std::uint64_t> memoVersion_;      ///< n×m, 0 = never memoised
  std::vector<double> memo_;                    ///< n×m memoised slacks
  std::vector<double> leafBuffer_;              ///< scratch for rebuilds
  SlackCounters counters_;
};

}  // namespace dsct
