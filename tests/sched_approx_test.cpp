#include "sched/approx.h"

#include <cmath>

#include <gtest/gtest.h>

#include "sched/guarantee.h"
#include "sched/validator.h"
#include "sim/cluster.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace dsct {
namespace {

using testing::randomInstance;
using testing::tinyInstance;

TEST(Guarantee, ClosedForm) {
  const Instance inst = tinyInstance();
  const GuaranteeBreakdown g = approximationGuarantee(inst);
  // Slopes: task 0 → 0.6, 0.2; task 1 → 0.45, 0.15. Range 0.9 − 0.0.
  EXPECT_DOUBLE_EQ(g.thetaMax, 0.6);
  EXPECT_DOUBLE_EQ(g.thetaMin, 0.15);
  EXPECT_DOUBLE_EQ(g.accuracyRange, 0.9);
  EXPECT_NEAR(g.g, 2.0 * 0.9 * (1.0 + std::log(0.6 / 0.15)), 1e-12);
}

TEST(Guarantee, EmptyInstanceIsZero) {
  Instance inst({}, {Machine{1.0, 1.0, "m"}}, 1.0);
  EXPECT_DOUBLE_EQ(approximationGuarantee(inst).g, 0.0);
}

TEST(Approx, FeasibleAndBoundedOnTinyInstance) {
  const Instance inst = tinyInstance(30.0);
  const ApproxResult res = solveApprox(inst);
  const ValidationReport report = validate(inst, res.schedule);
  EXPECT_TRUE(report.feasible) << report.summary();
  EXPECT_LE(res.totalAccuracy, res.upperBound + 1e-9);
}

TEST(Approx, EachTaskOnOneMachine) {
  const Instance inst = randomInstance(77, 15, 4);
  const ApproxResult res = solveApprox(inst);
  for (int j = 0; j < inst.numTasks(); ++j) {
    const int r = res.schedule.machineOf(j);
    EXPECT_GE(r, -1);
    EXPECT_LT(r, inst.numMachines());
  }
}

TEST(Approx, RespectsEnergyBudget) {
  // The rounding keeps machine loads within the fractional quotas; the
  // subsequent budget top-up may exceed individual quotas but never the
  // global budget.
  const Instance inst = randomInstance(33, 12, 3, 0.3, 0.4);
  const ApproxResult res = solveApprox(inst);
  EXPECT_LE(res.energy, inst.energyBudget() + 1e-6);
  const IntegralSchedule roundedOnly =
      roundFractional(inst, res.fractional.schedule);
  EXPECT_LE(roundedOnly.energy(inst), inst.energyBudget() + 1e-6);
}

// Property sweep: feasibility, SOL <= OPT, and the additive guarantee
// SOL >= OPT − G (Theorem in Section 5) on random instances.
class ApproxProperties : public ::testing::TestWithParam<int> {};

TEST_P(ApproxProperties, FeasibleAndWithinGuarantee) {
  const std::uint64_t seed =
      deriveSeed(8086, static_cast<std::uint64_t>(GetParam()));
  Rng rng(seed);
  const int n = rng.uniformInt(3, 25);
  const int m = rng.uniformInt(1, 5);
  const double rho = rng.uniform(0.02, 1.0);
  const double beta = rng.uniform(0.05, 1.0);
  const double thetaMin = rng.uniform(0.05, 0.5);
  const double mu = rng.uniform(1.0, 20.0);
  const Instance inst =
      randomInstance(seed, n, m, rho, beta, thetaMin, thetaMin * mu);

  const ApproxResult res = solveApprox(inst);
  const ValidationReport report = validate(inst, res.schedule);
  EXPECT_TRUE(report.feasible) << "seed " << seed << "\n" << report.summary();
  EXPECT_LE(res.totalAccuracy, res.upperBound + 1e-6) << "seed " << seed;
  EXPECT_GE(res.totalAccuracy, res.upperBound - res.guarantee.g - 1e-6)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ApproxProperties,
                         ::testing::Range(0, 40));

TEST(Approx, ZeroBudget) {
  const Instance inst = randomInstance(4, 8, 3, 0.3, 0.0);
  const ApproxResult res = solveApprox(inst);
  EXPECT_NEAR(res.totalAccuracy, inst.totalAmin(), 1e-9);
  EXPECT_NEAR(res.energy, 0.0, 1e-9);
  EXPECT_TRUE(validate(inst, res.schedule).feasible);
}

TEST(Approx, SingleMachineInstance) {
  const Instance inst = randomInstance(21, 10, 1, 0.5, 0.7);
  const ApproxResult res = solveApprox(inst);
  EXPECT_TRUE(validate(inst, res.schedule).feasible);
  // With m = 1 the rounding is lossless up to deadline cuts on identical
  // machine speeds; SOL must still be below UB.
  EXPECT_LE(res.totalAccuracy, res.upperBound + 1e-9);
}

// On a single machine the fractional solution is already integral, so the
// rounding loses nothing: SOL == UB exactly.
class ApproxLosslessOnOneMachine : public ::testing::TestWithParam<int> {};

TEST_P(ApproxLosslessOnOneMachine, SolEqualsUb) {
  Rng rng(deriveSeed(60, static_cast<std::uint64_t>(GetParam())));
  const Instance inst = randomInstance(
      deriveSeed(61, static_cast<std::uint64_t>(GetParam())), 12, 1,
      rng.uniform(0.05, 1.0), rng.uniform(0.1, 1.0), 0.1, 3.0);
  const ApproxResult res = solveApprox(inst);
  EXPECT_NEAR(res.totalAccuracy, res.upperBound, 1e-7)
      << "seed index " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ApproxLosslessOnOneMachine,
                         ::testing::Range(0, 10));

TEST(Approx, FlatTaskAtTinyDeadlineGetsNoWorkAndNoMiss) {
  // Task 0 is flat at its floor and due in 1e-9 s: APPROX starves it, and
  // the executor scores it at its floor without counting a miss.
  const Instance inst(
      {Task{1e-9, PiecewiseLinearAccuracy::linear(0.1, 0.1, 2.0), "flat"},
       Task{2.0, testing::twoSegment(0.0, 0.9, 3.0), "t1"}},
      tinyInstance().machines(), 1e9);
  const IntegralSchedule s = solveApprox(inst).schedule;
  EXPECT_EQ(s.flops(inst, 0), 0.0);
  EXPECT_GT(s.flops(inst, 1), 0.0);
  const sim::ExecutionResult exec = sim::executeSchedule(inst, s);
  EXPECT_EQ(exec.executions[0].flops, 0.0);
  EXPECT_EQ(exec.executions[0].accuracy, 0.1);
  EXPECT_EQ(exec.deadlineMisses, 0);
  EXPECT_GT(exec.executions[1].flops, 0.0);
}

TEST(Approx, GenerousEverything) {
  const Instance inst = randomInstance(5, 6, 2, 5.0, 1.0);
  const ApproxResult res = solveApprox(inst);
  EXPECT_NEAR(res.totalAccuracy, inst.totalAmax(), 1e-5);
}

TEST(RoundFractional, EmptyFractionalStaysWithinBudget) {
  // An all-zero fractional input leaves the full budget to the top-up
  // pass, which spends it greedily but must stay feasible.
  const Instance inst = randomInstance(2, 4, 2);
  const FractionalSchedule zero(inst.numTasks(), inst.numMachines());
  const IntegralSchedule s = roundFractional(inst, zero);
  EXPECT_TRUE(validate(inst, s).feasible);
}

TEST(RoundFractional, ZeroBudgetGivesEmptySchedule) {
  ScenarioSpec spec;
  spec.numTasks = 4;
  spec.numMachines = 2;
  spec.beta = 0.0;
  const Instance inst = makeScenario(spec, 0.1, 1.0, 3);
  const FractionalSchedule zero(inst.numTasks(), inst.numMachines());
  const IntegralSchedule s = roundFractional(inst, zero);
  for (int j = 0; j < inst.numTasks(); ++j) {
    EXPECT_DOUBLE_EQ(s.duration(j), 0.0);
  }
}

}  // namespace
}  // namespace dsct
