// End-to-end shape checks on quick variants of the paper's experiments.
#include <gtest/gtest.h>

#include "experiments/runner.h"
#include "dsct/dsct.h"
#include "experiments/scenarios.h"
#include "util/check.h"
#include "workload/generator.h"

namespace dsct {
namespace {

TEST(RunnerTest, ReplicateAggregates) {
  ExperimentRunner runner(2);
  const RunningStats stats =
      runner.replicate(10, [](int rep) { return static_cast<double>(rep); });
  EXPECT_EQ(stats.count(), 10u);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.5);
}

TEST(RunnerTest, ReplicateMultiChecksArity) {
  ExperimentRunner runner(2);
  EXPECT_THROW(runner.replicateMulti(
                   2, 3, [](int) { return std::vector<double>{1.0}; }),
               CheckError);
  const auto stats = runner.replicateMulti(
      4, 2, [](int rep) {
        return std::vector<double>{static_cast<double>(rep), 1.0};
      });
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[0].mean(), 1.5);
  EXPECT_DOUBLE_EQ(stats[1].mean(), 1.0);
}

TEST(Fig3Integration, GapWithinGuaranteeAndSmall) {
  ExperimentRunner runner;
  Fig3Config config = Fig3Config::quick();
  config.muValues = {5.0, 20.0};
  config.replications = 5;
  const auto rows = runFig3(config, runner);
  ASSERT_EQ(rows.size(), 2u);
  for (const Fig3Row& row : rows) {
    // The gap never exceeds the additive guarantee (Eq. 13)...
    EXPECT_LE(row.gap.max(), row.guarantee.max() + 1e-6);
    EXPECT_GE(row.gap.min(), -1e-6);
    // ...and is on average far from it (the paper's Fig. 3 message).
    EXPECT_LT(row.gap.mean(), 0.5 * row.guarantee.mean());
  }
}

TEST(Fig4Integration, ApproxScalesSolverTimesOut) {
  ExperimentRunner runner;
  Fig4Config config = Fig4Config::quick();
  config.taskCounts = {4, 12};
  config.replications = 1;
  config.mipTimeLimit = 1.0;
  const auto rows = runFig4a(config, runner);
  ASSERT_EQ(rows.size(), 2u);
  for (const Fig4Row& row : rows) {
    EXPECT_LT(row.approxSeconds.mean(), 1.0);  // approx is fast at tiny sizes
    EXPECT_EQ(row.approxAccuracy.count(), 1u);
  }
}

TEST(Fig4bIntegration, MachineSweepRuns) {
  ExperimentRunner runner;
  Fig4Config config = Fig4Config::quick();
  config.machineCounts = {2, 3};
  config.fixedTasks = 6;
  config.replications = 1;
  config.mipTimeLimit = 1.0;
  const auto rows = runFig4b(config, runner);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].size, 2);
  EXPECT_EQ(rows[1].size, 3);
}

TEST(Table1Integration, FrOptFasterAndAgrees) {
  ExperimentRunner runner;
  Table1Config config = Table1Config::quick();
  config.taskCounts = {20, 60};
  config.replications = 2;
  const auto rows = runTable1(config, runner);
  ASSERT_EQ(rows.size(), 2u);
  for (const Table1Row& row : rows) {
    if (row.lpTimeouts == 0) {
      // Objective agreement pins both implementations.
      EXPECT_LT(row.objectiveDiff.max(), 1e-4) << "n=" << row.numTasks;
    }
  }
  // The combinatorial algorithm beats the general simplex where the size is
  // large enough for the asymptotics to dominate timing noise.
  EXPECT_LT(rows.back().frOptSeconds.mean(), rows.back().lpSeconds.mean());
}

TEST(Fig5Integration, OrderingAndConvergence) {
  ExperimentRunner runner;
  Fig5Config config = Fig5Config::quick();
  config.betaValues = {0.2, 1.0};
  config.replications = 3;
  const auto rows = runFig5(config, runner);
  ASSERT_EQ(rows.size(), 2u);
  for (const Fig5Row& row : rows) {
    // APPROX is sandwiched between baselines and the upper bound.
    EXPECT_LE(row.approx.mean(), row.ub.mean() + 1e-6);
    EXPECT_GE(row.approx.mean(), row.edfNoCompression.mean() - 1e-6);
    EXPECT_GE(row.approx.mean(), row.edfLevels.mean() - 1e-6);
  }
  // Tighter budgets hurt.
  EXPECT_LE(rows[0].approx.mean(), rows[1].approx.mean() + 1e-9);
  // At β = 1 with ρ = 1 everything converges to a_max.
  EXPECT_NEAR(rows[1].approx.mean(), GeneratorDefaults::kAmax, 0.02);
  EXPECT_NEAR(rows[1].edfNoCompression.mean(), GeneratorDefaults::kAmax, 0.02);
}

TEST(Fig5Integration, EnergyGainHeadline) {
  ExperimentRunner runner;
  Fig5Config config = Fig5Config::quick();
  // Fine grid near the top: the ≤2%-loss frontier sits at high β.
  config.betaValues = {0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0};
  config.replications = 3;
  const auto rows = runFig5(config, runner);
  const EnergyGain gain = energyGainHeadline(rows);
  // The paper reports ~70% energy saved at ≤2% accuracy loss under its
  // (slacker) budget normalisation; under our workload-energy normalisation
  // the shape check is: a double-digit saving at ≤2% loss.
  EXPECT_GE(gain.savedFraction, 0.15);
  EXPECT_LE(gain.accuracyLoss, 0.02 + 1e-9);
}

TEST(Fig6Integration, ProfilesRespectBudgetAndHorizon) {
  ExperimentRunner runner;
  Fig6Config config = Fig6Config::quick();
  config.betaValues = {0.2, 0.8};
  config.replications = 2;
  for (const bool scenarioB : {false, true}) {
    config.earliestHighEfficient = scenarioB;
    const auto rows = runFig6(config, runner);
    ASSERT_EQ(rows.size(), 2u);
    for (const Fig6Row& row : rows) {
      // Per-replication normalised profiles never exceed the horizon.
      EXPECT_LE(row.normalized1.max(), 1.0 + 1e-9);
      EXPECT_LE(row.normalized2.max(), 1.0 + 1e-9);
      EXPECT_GE(row.profile1.min(), -1e-9);
      EXPECT_GE(row.profile2.min(), -1e-9);
    }
    // Larger budgets allow no smaller profiles on the efficient machine.
    EXPECT_LE(rows[0].naiveProfile1.mean(),
              rows[1].naiveProfile1.mean() + 1e-9);
  }
}

TEST(Fig6Integration, RefinementShiftsLoadInScenarioB) {
  // The paper's observation: with earliest-high-efficient tasks and strict
  // deadlines, the refined profile moves work onto the fast machine 2
  // relative to the naive profile at small β.
  ExperimentRunner runner;
  Fig6Config config = Fig6Config::quick();
  config.earliestHighEfficient = true;
  config.numTasks = 40;
  config.betaValues = {0.3};
  config.replications = 5;
  const auto rows = runFig6(config, runner);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GE(rows[0].profile2.mean(), rows[0].naiveProfile2.mean() - 1e-9);
}

TEST(EnergyGainHeadline, EmptyRowsAreSafe) {
  const EnergyGain gain = energyGainHeadline({});
  EXPECT_DOUBLE_EQ(gain.savedFraction, 0.0);
}

TEST(FullPipeline, GenerateSolvePersistSimulateRender) {
  // The whole user journey in one test: scenario generation, scheduling,
  // serialisation round-trip, discrete-event execution, and text rendering.
  ScenarioSpec spec;
  spec.numTasks = 10;
  spec.numMachines = 3;
  const Instance inst = makeScenario(spec, 0.1, 1.0, 777);

  const ApproxResult res = solveApprox(inst);
  ASSERT_TRUE(validate(inst, res.schedule).feasible);

  const std::string dir = ::testing::TempDir();
  io::writeInstanceFile(dir + "/pipe_i.txt", inst);
  io::writeScheduleFile(dir + "/pipe_s.txt", res.schedule);
  const Instance loaded = io::readInstanceFile(dir + "/pipe_i.txt");
  const IntegralSchedule schedule =
      io::readScheduleFile(dir + "/pipe_s.txt", loaded);

  const sim::ExecutionResult exec = sim::executeSchedule(loaded, schedule);
  EXPECT_NEAR(exec.totalAccuracy, res.totalAccuracy, 1e-9);
  EXPECT_EQ(exec.deadlineMisses, 0);

  const std::string gantt = renderGantt(loaded, schedule);
  EXPECT_FALSE(gantt.empty());
}

TEST(FullPipeline, RenewableServingWithBacklogAndDiurnalLoad) {
  // All three extensions composed: diurnal arrivals + solar supply +
  // backlog carry-over, across every policy.
  Rng rng(515);
  const auto machines = machinesFromCatalog({"T4", "A30"});
  const double day = 4.0;
  const auto solar =
      sim::PowerTrace::solarDay(250.0, day, 0.1, 0.9, 48, 0.1, rng);
  const auto load = ArrivalProcess::diurnal(5.0, 60.0, day);
  sim::ServingOptions options;
  options.horizonSeconds = day;
  options.epochSeconds = 0.5;
  options.carryBacklog = true;
  options.relDeadlineLo = 1.0;
  options.relDeadlineHi = 2.5;
  options.seed = 99;
  {
    Rng arrivals(options.seed);
    options.arrivalTimes = load.sample(day, arrivals);
  }
  double bestAccuracy = -1.0;
  std::string bestPolicy = "edf";
  for (const std::string policy : {"approx", "edf", "edf3"}) {
    const auto stats = sim::runServing(machines, policy, options, &solar);
    EXPECT_EQ(stats.requests, static_cast<int>(options.arrivalTimes.size()));
    EXPECT_LE(stats.totalEnergy, solar.energyBetween(0.0, day) + 1e-6);
    if (stats.meanAccuracy > bestAccuracy) {
      bestAccuracy = stats.meanAccuracy;
      bestPolicy = policy;
    }
  }
  EXPECT_EQ(bestPolicy, "approx");
}

}  // namespace
}  // namespace dsct
