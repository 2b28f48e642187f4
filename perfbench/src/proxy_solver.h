// Delegating proxy solvers for traced passes.
//
// A traced pass serves its workload with every solver name replaced by
// "bench.<name>": a registry entry that forwards to the named solver and
// records when each call ran and the FR-OPT counters it returned. The proxy
// copies the inner solver's capabilities, and the serving loop dispatches on
// capabilities only, so a traced pass yields the same ServingStats as an
// untraced one (perfbench/tests pins this, and every run checks it).
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "core/solver_api.h"
#include "spans.h"

namespace perfbench {

/// What one proxied solve left behind.
struct SolveRecord {
  std::string solver;   ///< inner registry name
  Interval time;
  long long epoch = 0;  ///< the epoch (serving) or instance (batch) it served
  int thread = 0;
  dsct::FrOptCounters counters;
};

/// Process-wide sink of the proxies' records.
///
/// Epoch numbering: each primary solve opens an epoch and fallback solves
/// join it. Under the serving loop's ShardedSolver the proxy sees cell solves
/// instead. One epoch solves each cell once at the coordinator's price, then
/// may re-solve some cells unpriced (top-up), and epochs never overlap (the
/// loop keeps one solve in flight). So a priced solve opens a new epoch when
/// its cell already solved in the current epoch, or when the current epoch
/// already had its top-up. A cell is known by its LP warm-start slot, which
/// the coordinator keeps per cell across epochs.
class SolveRecorder {
 public:
  static SolveRecorder& instance();

  /// Start a pass: drop earlier records and restart the epoch numbering.
  /// `primary` is the registry name of the pass's primary policy.
  void reset(std::string primary, bool shardedCells);
  std::vector<SolveRecord> records() const;

  /// Proxy side: open a record as a solve starts, close it as it returns.
  SolveRecord begin(const std::string& solver,
                    const dsct::SolveContext& context);
  void finish(SolveRecord record, const dsct::SolveOutcome& outcome);

 private:
  SolveRecorder() = default;

  mutable std::mutex mutex_;
  std::string primary_;
  bool shardedCells_ = false;
  long long epoch_ = -1;
  std::vector<const void*> epochCells_;  ///< cells priced this epoch
  bool epochToppedUp_ = false;
  std::vector<SolveRecord> records_;
};

/// Registry name of the proxy for solver `name` (an alias works too),
/// registering "bench.<canonical name>" on first use.
std::string proxyName(const std::string& name);

}  // namespace perfbench
