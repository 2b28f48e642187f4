#include "sched/single_machine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mipmodel/dsct_lp.h"
#include "sched/energy_profile.h"
#include "sched/naive_solution.h"
#include "sched/suffix_slack_tree.h"
#include "solver/simplex.h"
#include "tests/suffix_slack_tree_reference.h"
#include "tests/test_support.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace dsct {
namespace {

using testing::twoSegment;

TEST(SegmentJobs, FlattensAccuracyFunctions) {
  const std::vector<Task> tasks{Task{1.0, twoSegment(0.0, 0.8, 2.0), ""}};
  const auto segs = makeSegmentJobs(tasks);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].task, 0);
  EXPECT_EQ(segs[0].position, 0);
  EXPECT_DOUBLE_EQ(segs[0].slope, 0.6);  // 0.75*0.8 over half the range
  EXPECT_DOUBLE_EQ(segs[0].flops, 1.0);
  EXPECT_DOUBLE_EQ(segs[1].slope, 0.2);
}

TEST(SingleMachine, OneTaskFullyProcessedWhenTimeAllows) {
  const std::vector<Task> tasks{Task{10.0, twoSegment(0.0, 0.8, 2.0), ""}};
  const auto t = scheduleSingleMachine(tasks, 1.0);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t[0], 2.0);  // fmax / speed
}

TEST(SingleMachine, DeadlineCapsProcessing) {
  const std::vector<Task> tasks{Task{0.5, twoSegment(0.0, 0.8, 2.0), ""}};
  const auto t = scheduleSingleMachine(tasks, 1.0);
  EXPECT_DOUBLE_EQ(t[0], 0.5);
}

TEST(SingleMachine, SpeedScalesTime) {
  const std::vector<Task> tasks{Task{10.0, twoSegment(0.0, 0.8, 2.0), ""}};
  const auto t = scheduleSingleMachine(tasks, 4.0);
  EXPECT_DOUBLE_EQ(t[0], 0.5);
}

TEST(SingleMachine, PrioritisesSteeperTask) {
  // Two tasks share deadline 1.0; task 1 is steeper, so it should receive
  // the time.
  const std::vector<Task> tasks{
      Task{1.0, PiecewiseLinearAccuracy::linear(0.0, 0.2, 2.0), "shallow"},
      Task{1.0, PiecewiseLinearAccuracy::linear(0.0, 0.8, 2.0), "steep"},
  };
  const auto t = scheduleSingleMachine(tasks, 1.0);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[1], 1.0);
}

TEST(SingleMachine, LaterDeadlineAddsSlack) {
  // Task 0 (steep, d=1) fills [0,1]; task 1 (shallow, d=3) still gets 2s.
  const std::vector<Task> tasks{
      Task{1.0, PiecewiseLinearAccuracy::linear(0.0, 0.8, 2.0), "steep"},
      Task{3.0, PiecewiseLinearAccuracy::linear(0.0, 0.2, 2.0), "shallow"},
  };
  const auto t = scheduleSingleMachine(tasks, 1.0);
  EXPECT_DOUBLE_EQ(t[0], 1.0);
  EXPECT_DOUBLE_EQ(t[1], 2.0);
}

TEST(SingleMachine, EarlierTaskConstrainedByOwnDeadline) {
  // Steep task has the *later* deadline; shallow early task can only use
  // what the steep one leaves before its own deadline... here the steep
  // task (d=2) is scheduled first by slope; the shallow task (d=1) then
  // fits into the remaining prefix room.
  const std::vector<Task> tasks{
      Task{1.0, PiecewiseLinearAccuracy::linear(0.0, 0.2, 5.0), "shallow"},
      Task{2.0, PiecewiseLinearAccuracy::linear(0.0, 0.8, 1.0), "steep"},
  };
  const auto t = scheduleSingleMachine(tasks, 1.0);
  // Steep needs 1s anywhere before d=2. Shallow can then use up to
  // min(d_0 - t_0, d_1 - t_0 - t_1) = min(1 - t_0, 1) of its prefix.
  EXPECT_DOUBLE_EQ(t[1], 1.0);
  EXPECT_DOUBLE_EQ(t[0], 1.0);
}

TEST(SingleMachine, ZeroDeadlinesGiveZeroTimes) {
  const std::vector<Task> tasks{
      Task{0.0, twoSegment(), "a"},
      Task{0.0, twoSegment(), "b"},
  };
  const auto t = scheduleSingleMachine(tasks, 1.0);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[1], 0.0);
}

TEST(SingleMachine, EmptyInput) {
  const std::vector<Task> tasks;
  EXPECT_TRUE(scheduleSingleMachine(tasks, 1.0).empty());
}

TEST(SingleMachine, RejectsBadArguments) {
  const std::vector<Task> tasks{Task{1.0, twoSegment(), ""}};
  EXPECT_THROW(scheduleSingleMachine(tasks, 0.0), CheckError);
  std::vector<double> unsorted{2.0, 1.0};
  EXPECT_THROW(
      scheduleSingleMachine(unsorted, 1.0, std::vector<SegmentJob>{}),
      CheckError);
  std::vector<double> ok{1.0};
  EXPECT_THROW(scheduleSingleMachine(
                   ok, 1.0, std::vector<SegmentJob>{{7, 0, 0.1, 1.0}}),
               CheckError);
}

TEST(SingleMachine, PrefixConstraintsHold) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.uniformInt(1, 12);
    std::vector<Task> tasks;
    double d = 0.0;
    for (int j = 0; j < n; ++j) {
      d += rng.uniform(0.0, 1.0);
      tasks.push_back(Task{d, twoSegment(0.0, rng.uniform(0.3, 0.9),
                                         rng.uniform(0.5, 4.0)),
                           ""});
    }
    const auto t = scheduleSingleMachine(tasks, rng.uniform(0.5, 3.0));
    double prefix = 0.0;
    for (int j = 0; j < n; ++j) {
      prefix += t[static_cast<std::size_t>(j)];
      EXPECT_LE(prefix, tasks[static_cast<std::size_t>(j)].deadline + 1e-9);
    }
  }
}

// The load-bearing test: Algorithm 1 must match the LP optimum on random
// single-machine instances (energy budget disabled).
class SingleMachineVsLp : public ::testing::TestWithParam<int> {};

TEST_P(SingleMachineVsLp, MatchesLpOptimum) {
  const std::uint64_t seed =
      deriveSeed(777, static_cast<std::uint64_t>(GetParam()));
  Rng rng(seed);
  const int n = rng.uniformInt(2, 10);
  std::vector<Task> tasks;
  double d = 0.0;
  for (int j = 0; j < n; ++j) {
    d += rng.uniform(0.05, 1.0);
    tasks.push_back(Task{
        d, makePaperAccuracy(0.001, 0.82, rng.uniform(0.2, 3.0), 4), ""});
  }
  const double speed = rng.uniform(0.5, 4.0);
  std::vector<Machine> machines{Machine{speed, 1.0, "solo"}};
  // Huge budget: energy constraint inactive, matching Algorithm 1's scope.
  Instance inst(tasks, machines, 1e12);

  const auto t = scheduleSingleMachine(inst.tasks(), speed);
  double accuracy = 0.0;
  for (int j = 0; j < n; ++j) {
    accuracy += inst.task(j).accuracy.value(speed * t[static_cast<std::size_t>(j)]);
  }

  const DsctLp lpModel = buildFractionalLp(inst);
  const lp::LpResult lpRes = lp::solveLp(lpModel.model);
  ASSERT_EQ(lpRes.status, lp::SolveStatus::kOptimal) << "seed " << seed;
  EXPECT_NEAR(accuracy, lpRes.objective, 1e-6) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SingleMachineVsLp,
                         ::testing::Range(0, 30));

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The iterative tree against the recursive oracle: random assign/suffixAdd
// sequences over every n in 1..70 (powers of two, their neighbours and
// everything between), with every suffix query compared bit for bit after
// every operation. One tree pair serves all sizes, so assign() also runs
// across size changes.
TEST(SuffixSlackTreeExact, MatchesRecursiveTreeBitForBit) {
  Rng rng(20261017u);
  SuffixSlackTree tree;
  testing::RecursiveSuffixSlackTree oracle;
  long long comparisons = 0;
  long long mismatches = 0;
  // Magnitudes spread over nine decades so adds at different nodes round
  // differently; a few exact zeros and repeats make ties.
  auto draw = [&rng] {
    if (rng.bernoulli(0.05)) return 0.0;
    return rng.uniform(-0.2, 1.0) * std::pow(10.0, rng.uniformInt(-4, 4));
  };
  for (std::size_t n = 1; n <= 70; ++n) {
    for (int op = 0; op < 420; ++op) {
      std::string what;
      if (op % 70 == 0) {
        std::vector<double> leaves(n);
        for (double& v : leaves) v = rng.bernoulli(0.1) ? 1.5 : draw();
        tree.assign(leaves);
        oracle.assign(leaves);
        what = "assign";
      } else {
        // j == n is the no-op edge. One add in three takes exactly the
        // current suffix minimum, as Algorithm 1's slack-limited grants do.
        const std::size_t j =
            static_cast<std::size_t>(rng.uniformInt(0, static_cast<int>(n)));
        const double delta =
            rng.uniformInt(0, 2) == 0 ? -oracle.suffixMin(j) : -draw();
        if (!std::isfinite(delta)) continue;
        tree.suffixAdd(j, delta);
        oracle.suffixAdd(j, delta);
        what = "suffixAdd(" + std::to_string(j) + ")";
      }
      for (std::size_t q = 0; q <= n; ++q) {
        ++comparisons;
        const double got = tree.suffixMin(q);
        const double want = oracle.suffixMin(q);
        if (bits(got) != bits(want) && mismatches++ == 0) {
          ADD_FAILURE() << "n " << n << " op " << op << " after " << what
                        << ": suffixMin(" << q << ") = " << got
                        << ", recursive tree " << want;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GE(comparisons, 1'000'000);
}

// The saturation exit against the full scan: Algorithm 1 on the temporary
// deadlines of four profiles per corpus instance — the naive profile, a
// random U(0, 1)·d_max profile, and both of them scaled by 0.1, which makes
// the budget bind. Every t_j must match the reference loop (recursive tree,
// no exit) bit for bit, and on at least half the calls the exit must have
// fired with positive-slope segments still unscanned, so the test cannot
// pass on a corpus where the exit never matters.
TEST(Alg1SaturationExit, BitIdenticalToFullScanOverCorpus) {
  constexpr int kSeeds = 120;
  int calls = 0;
  int exits = 0;
  for (int c = 0; c < kSeeds; ++c) {
    const Instance inst = testing::corpusInstance(
        deriveSeed(20261017u, static_cast<std::uint64_t>(c)), c);
    std::vector<SegmentJob> segments = makeSegmentJobs(inst.tasks());
    sortSegmentJobs(segments);
    Rng rng(deriveSeed(1717u, static_cast<std::uint64_t>(c)));
    const EnergyProfile naive = naiveProfile(inst);
    EnergyProfile random(naive.size());
    for (double& p : random) p = rng.uniform(0.0, 1.0) * inst.maxDeadline();
    std::vector<EnergyProfile> profiles{naive, random, naive, random};
    for (std::size_t p = 2; p < profiles.size(); ++p) {
      for (double& v : profiles[p]) v *= 0.1;
    }
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      SCOPED_TRACE("case " + std::to_string(c) + " profile " +
                   std::to_string(p));
      const std::vector<double> temp = temporaryDeadlines(inst, profiles[p]);
      std::size_t scanned = 0;
      const std::vector<double> t =
          scheduleSingleMachineSorted(temp, 1.0, segments, &scanned);
      const std::vector<double> want =
          testing::scheduleSingleMachineReference(temp, 1.0, segments);
      ASSERT_EQ(t.size(), want.size());
      for (std::size_t j = 0; j < t.size(); ++j) {
        EXPECT_EQ(bits(t[j]), bits(want[j])) << "task " << j;
      }
      ASSERT_LE(scanned, segments.size());
      ++calls;
      if (std::any_of(segments.begin() + static_cast<std::ptrdiff_t>(scanned),
                      segments.end(),
                      [](const SegmentJob& s) { return s.slope > 0.0; })) {
        ++exits;
      }
    }
  }
  EXPECT_GE(2 * exits, calls) << exits << " exits in " << calls << " calls";
}

}  // namespace
}  // namespace dsct
