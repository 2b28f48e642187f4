#include "sim/cluster.h"

#include <gtest/gtest.h>

#include "baselines/edf_nocompress.h"
#include "core/solver_registry.h"
#include "sched/approx.h"
#include "sim/serving.h"
#include "sim/trace.h"
#include "tests/test_support.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/gpu_catalog.h"

namespace dsct {
namespace {

using testing::randomInstance;
using testing::tinyInstance;

TEST(Trace, OrderedAppendAndFilters) {
  sim::Trace trace;
  trace.append({0.0, sim::EventKind::kTaskStart, 0, 1, 0.0, 0.0});
  trace.append({1.0, sim::EventKind::kTaskFinish, 0, 1, 2.0, 5.0});
  trace.append({1.0, sim::EventKind::kMachineIdle, -1, 0, 0.0, 5.0});
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.eventsOfKind(sim::EventKind::kTaskFinish).size(), 1u);
  EXPECT_EQ(trace.eventsOfMachine(1).size(), 2u);
  EXPECT_NE(trace.toString().find("finish"), std::string::npos);
}

TEST(Trace, RejectsOutOfOrderEvents) {
  sim::Trace trace;
  trace.append({2.0, sim::EventKind::kTaskStart, 0, 0, 0.0, 0.0});
  EXPECT_THROW(
      trace.append({1.0, sim::EventKind::kTaskStart, 1, 0, 0.0, 0.0}),
      CheckError);
}

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
  // Start/finish events for both tasks plus idle markers.
  EXPECT_EQ(exec.trace.eventsOfKind(sim::EventKind::kTaskStart).size(), 2u);
  EXPECT_EQ(exec.trace.eventsOfKind(sim::EventKind::kTaskFinish).size(), 2u);
}

TEST(Cluster, ObservesDeadlineMisses) {
  const Instance inst = tinyInstance(1e9);
  // Task 0 (deadline 1.0) runs for 1.5 s: misses.
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, -1}, {1.5, 0.0});
  const sim::ExecutionResult exec = sim::executeSchedule(inst, s);
  EXPECT_EQ(exec.deadlineMisses, 1);
  EXPECT_FALSE(exec.executions[0].deadlineMet);
  EXPECT_EQ(exec.trace.eventsOfKind(sim::EventKind::kDeadlineMiss).size(), 1u);
}

TEST(Cluster, DroppedTasksKeepFloorAccuracy) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {-1, -1}, {0, 0});
  const sim::ExecutionResult exec = sim::executeSchedule(inst, s);
  EXPECT_FALSE(exec.executions[0].executed);
  EXPECT_DOUBLE_EQ(exec.totalAccuracy, inst.totalAmin());
  EXPECT_DOUBLE_EQ(exec.totalEnergy, 0.0);
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
