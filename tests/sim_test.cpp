#include "sim/cluster.h"

#include <gtest/gtest.h>

#include "baselines/edf_nocompress.h"
#include "core/solver_registry.h"
#include "sched/approx.h"
#include "sim/serving.h"
#include "tests/test_support.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/gpu_catalog.h"

namespace dsct {
namespace {

using testing::randomInstance;
using testing::tinyInstance;
using testing::twoSegment;

TEST(Cluster, ExecutesTinySchedule) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 1}, {0.5, 1.0});
  const sim::ExecutionResult exec = sim::executeSchedule(inst, s);
  EXPECT_EQ(exec.deadlineMisses, 0);
  EXPECT_NEAR(exec.totalEnergy, s.energy(inst), 1e-9);
  EXPECT_NEAR(exec.totalAccuracy, s.totalAccuracy(inst), 1e-12);
  EXPECT_NEAR(exec.makespan, 1.0, 1e-12);
  EXPECT_NEAR(exec.machineBusySeconds[0], 0.5, 1e-12);
  EXPECT_NEAR(exec.machineBusySeconds[1], 1.0, 1e-12);
  // Both tasks ran, each on its own machine.
  EXPECT_TRUE(exec.executions[0].executed && exec.executions[1].executed);
  EXPECT_EQ(exec.executions[1].machine, 1);
}

TEST(Cluster, ObservesDeadlineMisses) {
  const Instance inst = tinyInstance(1e9);
  // Task 0 (deadline 1.0) runs for 1.5 s: misses.
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, -1}, {1.5, 0.0});
  const sim::ExecutionResult exec = sim::executeSchedule(inst, s);
  EXPECT_EQ(exec.deadlineMisses, 1);
  EXPECT_FALSE(exec.executions[0].deadlineMet);
}

TEST(Cluster, DroppedTasksKeepFloorAccuracy) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {-1, -1}, {0, 0});
  const sim::ExecutionResult exec = sim::executeSchedule(inst, s);
  EXPECT_FALSE(exec.executions[0].executed);
  EXPECT_DOUBLE_EQ(exec.totalAccuracy, inst.totalAmin());
  EXPECT_DOUBLE_EQ(exec.totalEnergy, 0.0);
}

TEST(Cluster, TasksRunBackToBackInTimelineOrder) {
  const Instance inst = tinyInstance(1e9);
  // Both tasks on machine 0 (2 TFLOPS, 40 W), task 0 first.
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  const sim::ExecutionResult exec = sim::executeSchedule(inst, s);
  for (int j = 0; j < 2; ++j) {
    const sim::TaskExecution& e = exec.executions[static_cast<std::size_t>(j)];
    EXPECT_EQ(e.task, j);
    EXPECT_EQ(e.machine, 0);
    EXPECT_TRUE(e.executed);
    EXPECT_FALSE(e.interrupted);
    // The executor stacks slots exactly as the schedule does.
    EXPECT_EQ(e.start, s.start(j));
    EXPECT_EQ(e.finish, s.start(j) + s.duration(j));
    EXPECT_EQ(e.flops, s.duration(j) * inst.machine(0).speed);
  }
  EXPECT_EQ(exec.executions[1].start, exec.executions[0].finish);
  EXPECT_EQ(exec.makespan, exec.executions[1].finish);
  EXPECT_NEAR(exec.machineBusySeconds[0], 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(exec.machineBusySeconds[1], 0.0);
  EXPECT_NEAR(exec.totalEnergy, 0.7 * 40.0, 1e-9);
}

TEST(Cluster, QueueingBehindAnEarlierTaskCausesAMiss) {
  const Instance inst = tinyInstance(1e9);
  // Task 1 (d = 2.0) alone would finish at 1.5, but it queues behind task
  // 0's 0.9 s on the same machine and finishes at 2.4.
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.9, 1.5});
  const sim::ExecutionResult exec = sim::executeSchedule(inst, s);
  EXPECT_TRUE(exec.executions[0].deadlineMet);
  EXPECT_FALSE(exec.executions[1].deadlineMet);
  EXPECT_EQ(exec.deadlineMisses, 1);
  EXPECT_NEAR(exec.executions[1].finish, 2.4, 1e-12);
  // A miss is observed, not prevented: the late task delivers all its work.
  EXPECT_EQ(exec.executions[1].flops, 1.5 * inst.machine(0).speed);
  EXPECT_EQ(exec.executions[1].accuracy, s.taskAccuracy(inst, 1));
}

TEST(Cluster, DeadlineToleranceIsOneNanosecond) {
  const Instance inst = tinyInstance(1e9);
  // Task 0's deadline is 1.0 s.
  const auto finishAt = [&](double seconds) {
    return sim::executeSchedule(
        inst, IntegralSchedule::build(inst, {0, -1}, {seconds, 0.0}));
  };
  EXPECT_EQ(finishAt(1.0).deadlineMisses, 0);
  EXPECT_EQ(finishAt(1.0 + 5e-10).deadlineMisses, 0);
  const sim::ExecutionResult late = finishAt(1.0 + 2e-9);
  EXPECT_EQ(late.deadlineMisses, 1);
  EXPECT_FALSE(late.executions[0].deadlineMet);
}

TEST(Cluster, ZeroLengthSlotTakesNoTimeOrEnergy) {
  const Instance inst = tinyInstance(1e9);
  // Task 0 holds a zero-length slot on machine 0 ahead of task 1.
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.0, 0.4});
  const sim::ExecutionResult exec = sim::executeSchedule(inst, s);
  const sim::TaskExecution& empty = exec.executions[0];
  EXPECT_TRUE(empty.executed);
  EXPECT_EQ(empty.machine, 0);
  EXPECT_EQ(empty.start, 0.0);
  EXPECT_EQ(empty.finish, 0.0);
  EXPECT_EQ(empty.flops, 0.0);
  EXPECT_EQ(empty.accuracy, inst.task(0).accuracy.value(0.0));
  EXPECT_TRUE(empty.deadlineMet);
  // Task 1 is not pushed back by the empty slot.
  EXPECT_EQ(exec.executions[1].start, 0.0);
  EXPECT_EQ(exec.executions[1].finish, 0.4);
  EXPECT_EQ(exec.machineBusySeconds[0], 0.4);
  EXPECT_EQ(exec.totalEnergy, 0.4 * inst.machine(0).power());
}

TEST(Cluster, RejectsScheduleOfAnotherInstance) {
  const Instance inst = tinyInstance(1e9);
  const Instance other = randomInstance(5, 3, 2);
  const IntegralSchedule s =
      IntegralSchedule::build(other, {0, 1, -1}, {0.1, 0.1, 0.0});
  EXPECT_THROW(sim::executeSchedule(inst, s), CheckError);
}

TEST(Cluster, EnergySumsInFinishTimeThenMachineOrder) {
  // Powers 0.5 W, 0.2 W and 1/0.3 W, chosen so that the order of the
  // floating-point additions shows in the total.
  std::vector<Task> tasks;
  for (int j = 0; j < 4; ++j) tasks.push_back({5.0, twoSegment(), ""});
  const Instance inst(
      std::move(tasks),
      {Machine{1.0, 2.0, ""}, Machine{1.0, 5.0, ""}, Machine{1.0, 0.3, ""}},
      1e9);
  // Task 0 finishes first (0.5 s on machine 2); tasks 1, 2 and 3 all
  // finish at 1.0 s on machines 0, 1 and 2.
  const IntegralSchedule s =
      IntegralSchedule::build(inst, {2, 0, 1, 2}, {0.5, 1.0, 1.0, 0.5});
  const double p0 = inst.machine(0).power();
  const double p1 = inst.machine(1).power();
  const double p2 = inst.machine(2).power();
  const double expected = (((0.0 + 0.5 * p2) + 1.0 * p0) + 1.0 * p1) + 0.5 * p2;
  // Machine order broken the other way, or machine-major order, gives
  // different bits, so the instance tells the orders apart.
  ASSERT_NE(expected, (((0.0 + 0.5 * p2) + 0.5 * p2) + 1.0 * p1) + 1.0 * p0);
  ASSERT_NE(expected, (((0.0 + 1.0 * p0) + 1.0 * p1) + 0.5 * p2) + 0.5 * p2);
  EXPECT_EQ(sim::executeSchedule(inst, s).totalEnergy, expected);
}

// Property: simulated metrics always agree with analytic schedule metrics,
// for every scheduler.
class ClusterAgreesWithAnalytic : public ::testing::TestWithParam<int> {};

TEST_P(ClusterAgreesWithAnalytic, EnergyAndAccuracyMatch) {
  const std::uint64_t seed =
      deriveSeed(606, static_cast<std::uint64_t>(GetParam()));
  const Instance inst = randomInstance(seed, 12, 3, 0.3, 0.5, 0.1, 2.0);
  const IntegralSchedule s = solveApprox(inst).schedule;
  const sim::ExecutionResult exec = sim::executeSchedule(inst, s);
  EXPECT_NEAR(exec.totalEnergy, s.energy(inst), 1e-6);
  EXPECT_NEAR(exec.totalAccuracy, s.totalAccuracy(inst), 1e-9);
  EXPECT_EQ(exec.deadlineMisses, 0);  // approx schedules are feasible
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ClusterAgreesWithAnalytic,
                         ::testing::Range(0, 15));

TEST(Serving, RunsAndAccountsRequests) {
  sim::ServingOptions options;
  options.arrivalRatePerSecond = 30.0;
  options.horizonSeconds = 2.0;
  options.epochSeconds = 0.5;
  options.energyBudgetPerEpoch = 50.0;
  options.seed = 3;
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const sim::ServingStats stats = sim::runServing(machines, "approx", options);
  EXPECT_GT(stats.requests, 0);
  EXPECT_GE(stats.served, 0);
  EXPECT_LE(stats.served, stats.requests);
  EXPECT_GT(stats.epochs, 0);
  EXPECT_GE(stats.meanAccuracy, 0.0);
  EXPECT_LE(stats.meanAccuracy, 1.0);
  // Per-epoch budget respected overall.
  EXPECT_LE(stats.totalEnergy,
            options.energyBudgetPerEpoch * stats.epochs + 1e-6);
}

TEST(Serving, DeterministicForFixedSeed) {
  sim::ServingOptions options;
  options.horizonSeconds = 1.0;
  options.seed = 12;
  const auto machines = machinesFromCatalog({"T4"});
  const auto a = sim::runServing(machines, "edf3", options);
  const auto b = sim::runServing(machines, "edf3", options);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.meanAccuracy, b.meanAccuracy);
  EXPECT_DOUBLE_EQ(a.totalEnergy, b.totalEnergy);
}

TEST(Serving, ApproxBeatsNoCompressionUnderTightEnergy) {
  sim::ServingOptions options;
  options.arrivalRatePerSecond = 40.0;
  options.horizonSeconds = 3.0;
  options.epochSeconds = 0.5;
  options.energyBudgetPerEpoch = 20.0;  // tight
  options.seed = 21;
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const auto approx = sim::runServing(machines, "approx", options);
  const auto none = sim::runServing(machines, "edf", options);
  EXPECT_GT(approx.meanAccuracy, none.meanAccuracy);
}

TEST(Serving, PolicyNames) {
  // The serving examples label each policy row with the solver's registry
  // display name.
  const auto label = [](const char* name) {
    return SolverRegistry::instance().resolve(name).displayName();
  };
  EXPECT_EQ(label("approx"), "DSCT-EA-Approx");
  EXPECT_EQ(label("edf"), "EDF-NoCompression");
  EXPECT_EQ(label("edf3"), "EDF-3CompressionLevels");
}

}  // namespace
}  // namespace dsct
