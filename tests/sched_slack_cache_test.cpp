// Differential harness for RefineProfile's incremental slack engine.
//
// The incremental engine (sched/slack_engine.h) replaces the per-candidate
// O(n) deadline-slack scan with a (task, machine) memo over per-machine
// suffix-min trees, invalidated by per-machine version counters. Its whole
// contract is bit-identity with the scratch scan, which survives as the test
// oracle in tests/refine_linear_scan_reference.h: over the shared corpus
// (tests/test_support.h — loose and tight budgets, strict deadlines,
// zero-slope degenerate tasks, horizon-bound profiles) every refined
// schedule entry, objective, and shared counter must equal the oracle's bit
// for bit. The same harness pins a golden FR-OPT objective on a mid-size
// corpus instance.
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "sched/fr_opt.h"
#include "sched/naive_solution.h"
#include "sched/refine_profile.h"
#include "sched/slack_engine.h"
#include "tests/refine_linear_scan_reference.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace dsct {
namespace {

using testing::corpusInstance;
using testing::goldenMidSizeInstance;
using testing::kCorpusRegimes;

constexpr int kDifferentialCases = 120;  ///< ≥ 100 seeds (acceptance floor)

TEST(SlackCacheDifferential, RefineBitIdenticalAcrossCorpus) {
  long long totalHits = 0;
  long long totalTransfers = 0;
  // The corpus, plus ten seed-777 corpus members as extra inputs.
  for (const auto& [seed, cases] :
       {std::pair{20240807u, kDifferentialCases}, {777u, 2 * kCorpusRegimes}}) {
    for (int c = 0; c < cases; ++c) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " case " +
                   std::to_string(c));
      const Instance inst =
          corpusInstance(deriveSeed(seed, static_cast<std::uint64_t>(c)), c);
      FractionalSchedule incremental = computeNaiveSolution(inst).schedule;
      FractionalSchedule scratch = incremental;
      const RefineStats fast = refineProfile(inst, incremental);
      const RefineStats slow =
          testing::refineProfileLinearScan<testing::ScratchSlackScan>(
              inst, scratch);

      // Shared counters: both must take the same transfer trajectory and
      // answer the same number of slack queries.
      EXPECT_EQ(fast.rounds, slow.rounds);
      EXPECT_EQ(fast.transfers, slow.transfers);
      EXPECT_EQ(fast.energyMoved, slow.energyMoved);
      EXPECT_EQ(fast.slack.queries, slow.slack.queries);

      // Bit-identical profiles and objectives.
      for (int j = 0; j < inst.numTasks(); ++j) {
        for (int r = 0; r < inst.numMachines(); ++r) {
          EXPECT_EQ(incremental.at(j, r), scratch.at(j, r))
              << "t[" << j << "," << r << "]";
        }
      }
      EXPECT_EQ(incremental.totalAccuracy(inst), scratch.totalAccuracy(inst));
      EXPECT_EQ(incremental.energy(inst), scratch.energy(inst));

      totalHits += fast.slack.hits;
      totalTransfers += fast.transfers;
    }
  }
  // The corpus must actually exercise both the memo and the transfer path —
  // a trivially idle corpus would make the differential vacuous.
  EXPECT_GT(totalHits, 0);
  EXPECT_GT(totalTransfers, 0);
}

TEST(SlackCacheDifferential, SlackEngineMatchesScratchQueryByQuery) {
  // Unit-level differential: interleave queries and transfers, comparing the
  // engine against the scratch scan on the same live schedule after every
  // mutation.
  for (int c = 0; c < 3 * kCorpusRegimes; ++c) {
    const Instance inst =
        corpusInstance(deriveSeed(31337u, static_cast<std::uint64_t>(c)), c);
    NaiveSolution naive = computeNaiveSolution(inst);
    FractionalSchedule& schedule = naive.schedule;
    SlackEngine fast(inst, schedule);
    Rng rng(deriveSeed(4242u, static_cast<std::uint64_t>(c)));
    const int n = inst.numTasks();
    const int m = inst.numMachines();
    for (int step = 0; step < 200; ++step) {
      const int j = rng.uniformInt(0, n - 1);
      const int r = rng.uniformInt(0, m - 1);
      const double a = fast.slack(j, r);
      const double b = testing::scratchSlack(inst, schedule, j, r);
      EXPECT_EQ(a, b) << "case " << c << " step " << step << " (" << j << ","
                      << r << ")";
      // Immediate re-query: must serve from the memo, bit-identically.
      EXPECT_EQ(fast.slack(j, r), a) << "case " << c << " step " << step;
      if (step % 3 == 0) {
        // Mutate the schedule like a refine transfer would and notify the
        // engine.
        const int j2 = rng.uniformInt(0, n - 1);
        const int r2 = rng.uniformInt(0, m - 1);
        const double dt = rng.uniform(0.0, 0.05);
        schedule.add(j, r, dt);
        schedule.set(j2, r2, std::max(0.0, schedule.at(j2, r2) - dt));
        fast.onTransfer(r, r2);
      }
    }
    EXPECT_GT(fast.counters().hits, 0) << "case " << c;
  }
}

TEST(FrOptGolden, MidSizeObjectivePinned) {
  // Golden-value pin on one mid-size instance (n=60, Fig. 6b shape).
  // Guards the whole FR-OPT pipeline — naive profile, slack engine, pair
  // and direction searches — against silent numerical drift. Update the
  // constant only for a deliberate, understood algorithm change.
  const Instance inst = goldenMidSizeInstance();
  const FrOptResult result = solveFrOpt(inst);
  constexpr double kPinnedObjective = 14.418573205489668;
  EXPECT_NEAR(result.totalAccuracy, kPinnedObjective, 1e-9);
  EXPECT_LE(result.energy, inst.energyBudget() * (1.0 + 1e-9));
  // The pin must exercise the engine, not just agree on an idle refine.
  EXPECT_GT(result.counters.slackQueries, 0);
  EXPECT_GT(result.counters.slackHits, 0);
  EXPECT_GT(result.refineStats.transfers, 0);
}

}  // namespace
}  // namespace dsct
