#include "sched/fr_opt.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "mipmodel/dsct_lp.h"
#include "sched/kkt.h"
#include "sched/naive_solution.h"
#include "sched/refine_profile.h"
#include "sched/validator.h"
#include "solver/simplex.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace dsct {
namespace {

using testing::randomInstance;
using testing::tinyInstance;

TEST(TemporaryDeadlines, CapacityByDeadline) {
  const Instance inst = tinyInstance(1e9);
  const EnergyProfile profile{2.0, 2.0};  // both machines fully available
  const auto temp = temporaryDeadlines(inst, profile);
  ASSERT_EQ(temp.size(), 2u);
  // d_0 = 1: both machines can work 1 s → 2 + 1 = 3 TFLOP.
  EXPECT_DOUBLE_EQ(temp[0], 3.0);
  // d_1 = 2: 4 + 2 = 6 TFLOP.
  EXPECT_DOUBLE_EQ(temp[1], 6.0);
}

TEST(TemporaryDeadlines, ProfileLimitsCapacity) {
  const Instance inst = tinyInstance(1e9);
  const EnergyProfile profile{0.5, 2.0};
  const auto temp = temporaryDeadlines(inst, profile);
  // d_0 = 1: machine 0 capped at 0.5 s → 1 + 1 = 2 TFLOP.
  EXPECT_DOUBLE_EQ(temp[0], 2.0);
  // d_1 = 2: 1 + 2 = 3.
  EXPECT_DOUBLE_EQ(temp[1], 3.0);
}

TEST(NaiveSolution, FeasibleOnTinyInstance) {
  const Instance inst = tinyInstance(30.0);
  const NaiveSolution naive = computeNaiveSolution(inst);
  const ValidationReport report = validate(inst, naive.schedule);
  EXPECT_TRUE(report.feasible) << report.summary();
  // The schedule must respect the naive profile per machine.
  for (int r = 0; r < inst.numMachines(); ++r) {
    EXPECT_LE(naive.schedule.machineLoad(r),
              naive.profile[static_cast<std::size_t>(r)] + 1e-9);
  }
}

TEST(NaiveSolution, UnconstrainedBudgetProcessesEverything) {
  const Instance inst = tinyInstance(1e9);
  const NaiveSolution naive = computeNaiveSolution(inst);
  // Horizon 2 s with 3 TFLOPS total ≥ 5 TFLOP demand... but task 0's
  // deadline is 1 s, so capacity by d_0 is 3 TFLOP > fmax_0 = 2. Everything
  // fits.
  EXPECT_NEAR(naive.schedule.flops(inst, 0), 2.0, 1e-9);
  EXPECT_NEAR(naive.schedule.flops(inst, 1), 3.0, 1e-9);
  EXPECT_NEAR(naive.schedule.totalAccuracy(inst), 1.7, 1e-9);
}

TEST(NaiveSolution, EmptyInstance) {
  Instance inst({}, {Machine{1.0, 1.0, "m"}}, 1.0);
  const NaiveSolution naive = computeNaiveSolution(inst);
  EXPECT_EQ(naive.schedule.numTasks(), 0);
}

TEST(RefineProfile, NeverDecreasesAccuracyOrIncreasesEnergy) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = randomInstance(deriveSeed(50, trial), 10, 3, 0.3,
                                         0.4, 0.1, 2.0);
    NaiveSolution naive = computeNaiveSolution(inst);
    const double accBefore = naive.schedule.totalAccuracy(inst);
    const double energyBefore = naive.schedule.energy(inst);
    const RefineStats stats = refineProfile(inst, naive.schedule);
    const double accAfter = naive.schedule.totalAccuracy(inst);
    const double energyAfter = naive.schedule.energy(inst);
    EXPECT_GE(accAfter, accBefore - 1e-9);
    EXPECT_LE(energyAfter, energyBefore + 1e-6);
    EXPECT_GE(stats.rounds, 0);
    const ValidationReport report = validate(inst, naive.schedule);
    EXPECT_TRUE(report.feasible) << report.summary();
  }
}

TEST(FrOpt, ReportsConsistentMetrics) {
  const Instance inst = randomInstance(123, 12, 4);
  const FrOptResult res = solveFrOpt(inst);
  EXPECT_NEAR(res.totalAccuracy, res.schedule.totalAccuracy(inst), 1e-12);
  EXPECT_NEAR(res.energy, res.schedule.energy(inst), 1e-9);
  ASSERT_EQ(static_cast<int>(res.refinedProfile.size()), inst.numMachines());
  for (int r = 0; r < inst.numMachines(); ++r) {
    EXPECT_NEAR(res.refinedProfile[static_cast<std::size_t>(r)],
                res.schedule.machineLoad(r), 1e-12);
  }
}

// ---- The load-bearing cross-check: FR-OPT == LP optimum ----
struct FrOptLpCase {
  int n;
  int m;
  double rho;
  double beta;
  double thetaMin;
  double thetaMax;
};

class FrOptVsLp : public ::testing::TestWithParam<std::tuple<FrOptLpCase, int>> {
};

TEST_P(FrOptVsLp, MatchesLpOptimum) {
  const auto& [c, rep] = GetParam();
  const std::uint64_t seed =
      deriveSeed(31337, static_cast<std::uint64_t>(rep) * 17u +
                            static_cast<std::uint64_t>(c.n) * 1009u +
                            static_cast<std::uint64_t>(c.m));
  const Instance inst =
      randomInstance(seed, c.n, c.m, c.rho, c.beta, c.thetaMin, c.thetaMax);

  const FrOptResult fr = solveFrOpt(inst);
  const ValidationReport report = validate(inst, fr.schedule);
  ASSERT_TRUE(report.feasible) << report.summary();

  const DsctLp lpModel = buildFractionalLp(inst);
  const lp::LpResult lpRes = lp::solveLp(lpModel.model);
  ASSERT_EQ(lpRes.status, lp::SolveStatus::kOptimal);

  // Upper side is structural: FR-OPT's schedule is feasible for the LP, so
  // it can never exceed the LP optimum beyond numerical error.
  const double upperTol = 1e-6 * std::max(1.0, lpRes.objective);
  EXPECT_LE(fr.totalAccuracy, lpRes.objective + upperTol) << "seed " << seed;
  // Lower side: the profile search stops on a certificate of optimality
  // (DESIGN.md §25), so FR-OPT reaches the optimum up to the LP's own
  // tolerance.
  const double lowerTol = 1e-7 * std::max(1.0, lpRes.objective);
  EXPECT_GE(fr.totalAccuracy, lpRes.objective - lowerTol) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrOptVsLp,
    ::testing::Combine(
        ::testing::Values(FrOptLpCase{4, 2, 0.3, 0.5, 0.1, 1.0},
                          FrOptLpCase{8, 3, 0.35, 0.5, 0.1, 2.0},
                          FrOptLpCase{8, 3, 0.35, 0.2, 0.1, 2.0},
                          FrOptLpCase{12, 2, 1.0, 0.3, 0.1, 0.1},
                          FrOptLpCase{6, 4, 0.05, 0.6, 0.5, 4.9},
                          FrOptLpCase{10, 5, 0.01, 0.4, 0.1, 4.9}),
        ::testing::Range(0, 5)));

// KKT conditions on FR-OPT output.
class FrOptKkt : public ::testing::TestWithParam<int> {};

TEST_P(FrOptKkt, SatisfiesKktConditions) {
  const std::uint64_t seed =
      deriveSeed(5150, static_cast<std::uint64_t>(GetParam()));
  Rng rng(seed);
  const int n = rng.uniformInt(4, 14);
  const int m = rng.uniformInt(2, 4);
  const double rho = rng.uniform(0.05, 0.8);
  const double beta = rng.uniform(0.2, 0.9);
  const Instance inst = randomInstance(seed, n, m, rho, beta, 0.1, 3.0);
  const FrOptResult fr = solveFrOpt(inst);
  KktOptions options;
  options.gainTol = 2e-4;  // numerical headroom for transfer tolerances
  const KktReport report = checkKkt(inst, fr.schedule, options);
  EXPECT_TRUE(report.satisfied) << "seed " << seed << "\n" << report.summary();
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, FrOptKkt, ::testing::Range(0, 20));

TEST(FrOpt, ReportsCounters) {
  const Instance inst = randomInstance(123, 12, 4);
  const FrOptResult res = solveFrOpt(inst);
  EXPECT_GT(res.counters.outerRounds, 0);
  EXPECT_GT(res.counters.evaluations, 0);
  EXPECT_GT(res.counters.masterLpSolves, 0);
  EXPECT_GE(res.counters.totalSeconds, 0.0);
  // The search's cuts are fused evaluations. A schedule is materialised at
  // most twice per solve: once for a naive start that energy caps clip, and
  // once for the profile the search ends on, when it beats the refine pass.
  EXPECT_LE(res.counters.scheduleSolves, 2);
}

TEST(FrOpt, ZeroBudgetYieldsFloorAccuracy) {
  const Instance inst = randomInstance(9, 6, 3, 0.3, 0.0);
  const FrOptResult fr = solveFrOpt(inst);
  EXPECT_NEAR(fr.totalAccuracy, inst.totalAmin(), 1e-9);
  EXPECT_NEAR(fr.energy, 0.0, 1e-9);
}

TEST(FrOpt, GenerousBudgetSaturatesTasksWithinDeadlines) {
  // β = 1 and ρ large: every task reaches a_max.
  const Instance inst = randomInstance(10, 6, 3, 5.0, 1.0);
  const FrOptResult fr = solveFrOpt(inst);
  EXPECT_NEAR(fr.totalAccuracy, inst.totalAmax(), 1e-6);
}

}  // namespace
}  // namespace dsct
