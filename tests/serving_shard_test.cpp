// Sharded serving (ServingOptions::shards): the coordinator wired through
// the serving loop, its stats and incidents, and the scenario DSL keys.
#include <string>

#include <gtest/gtest.h>

#include "sim/serving.h"
#include "tests/serving_support.h"
#include "workload/gpu_catalog.h"
#include "workload/scenario.h"

namespace dsct {
namespace {

using testing::expectSameServing;

sim::ServingOptions baseOptions() {
  sim::ServingOptions options;
  options.arrivalRatePerSecond = 8.0;
  options.horizonSeconds = 4.0;
  options.epochSeconds = 0.5;
  options.energyBudgetPerEpoch = 30.0;
  options.relDeadlineLo = 0.5;
  options.relDeadlineHi = 2.0;
  options.thetaLo = 0.1;
  options.thetaHi = 1.0;
  options.seed = 23;
  options.carryBacklog = true;
  return options;
}

std::vector<Machine> fleet() {
  return machinesFromCatalog({"T4", "V100", "A100", "T4"});
}

TEST(ServingShard, ShardsZeroAndOneMatchUnsharded) {
  const auto machines = fleet();
  const sim::ServingStats plain =
      sim::runServing(machines, std::string("approx"), baseOptions());
  for (const int shards : {0, 1}) {
    sim::ServingOptions options = baseOptions();
    options.shards = shards;
    SCOPED_TRACE(shards);
    expectSameServing(
        plain, sim::runServing(machines, std::string("approx"), options));
  }
}

TEST(ServingShard, ShardedRunReportsCoordinatorStats) {
  sim::ServingOptions options = baseOptions();
  options.shards = 2;
  options.shardSeed = 5;
  const sim::ServingStats stats =
      sim::runServing(fleet(), std::string("approx"), options);
  EXPECT_GT(stats.served, 0);
  EXPECT_GT(stats.shardedEpochs, 0);
  EXPECT_EQ(stats.shardedEpochs, stats.epochs);
  EXPECT_GE(stats.shardPriceIterations, stats.shardedEpochs);
  EXPECT_GE(stats.shardTopUpEnergy, 0.0);
  EXPECT_EQ(stats.shardPriceDivergences, 0);
}

TEST(ServingShard, ShardedRunIsReplayable) {
  // The cell solves fan out on the run's worker pool, and a cell solving on
  // a worker runs its own profile evaluations inline. A replay on one worker
  // and on an oversubscribed eight must serve the same run field for field.
  sim::ServingOptions options = baseOptions();
  options.shards = 3;
  options.solverThreads = 1;
  const sim::ServingStats a =
      sim::runServing(fleet(), std::string("approx"), options);
  options.solverThreads = 8;
  const sim::ServingStats b =
      sim::runServing(fleet(), std::string("approx"), options);
  expectSameServing(a, b);
}

TEST(ServingShard, FallbacksStayUnsharded) {
  // A sharded primary with a fallback chain: fallback attempts resolve the
  // raw registry solvers, so a fallback solve must not be double-counted in
  // the shard stats (only primary solves are).
  sim::ServingOptions options = baseOptions();
  options.shards = 2;
  options.fallbackChain = {"edf3", "edf"};
  const sim::ServingStats stats =
      sim::runServing(fleet(), std::string("approx"), options);
  EXPECT_GT(stats.served, 0);
  EXPECT_LE(stats.shardedEpochs, stats.epochs);
}

TEST(ServingShard, ScenarioKeysParseAndMaterialize) {
  const char* text = R"(
scenario {
  name: sharded
  seed: 3
}
machine class {
  name: pool
  gpus: T4, V100
  count: 2
}
task class {
  name: web
  arrival: poisson 10
  theta: 0.1 1.0
  deadline: 0.5 2.0
}
serving {
  horizon: 4
  epoch: 0.5
  budget: 25
  policy: approx
  shards: 3
  shard seed: 77
}
)";
  const Scenario sc = parseScenario(text, "sharded.dsct");
  EXPECT_EQ(sc.serving.shards, 3);
  EXPECT_EQ(sc.serving.shardSeed, 77u);
  const sim::ServingOptions options = makeServingOptions(sc);
  EXPECT_EQ(options.shards, 3);
  EXPECT_EQ(options.shardSeed, 77u);

  const sim::ServingStats stats = sim::runServing(
      materializeMachines(sc), sc.serving.policy, options);
  EXPECT_GT(stats.shardedEpochs, 0);
}

/// A one-class scenario whose serving block sets `shards:` to `value`, on
/// line 10.
std::string shardsScenario(const std::string& value) {
  return "machine class {\n"
         "  name: pool\n"
         "  gpus: T4, V100\n"
         "}\n"
         "task class {\n"
         "  name: web\n"
         "  arrival: poisson 5\n"
         "}\n"
         "serving {\n"
         "  shards: " + value + "\n"
         "  horizon: 2\n"
         "}\n";
}

TEST(ServingShard, ScenarioRejectsMalformedShards) {
  // Past int range a cast would be undefined; 1e12 once served unsharded.
  for (const char* value : {"-2", "1e12", "2147483648"}) {
    SCOPED_TRACE(value);
    try {
      parseScenario(shardsScenario(value), "bad.dsct");
      ADD_FAILURE() << "accepted shards: " << value;
    } catch (const ScenarioError& e) {
      EXPECT_EQ(e.line(), 10) << e.what();
    }
  }
}

TEST(ServingShard, ScenarioShardCountAtTheCapServes) {
  // The largest accepted count clamps to the fleet, as any count above the
  // machine count does.
  const Scenario capped = parseScenario(shardsScenario("1e9"), "cap.dsct");
  EXPECT_EQ(capped.serving.shards, 1'000'000'000);
  const Scenario fleetSized = parseScenario(shardsScenario("2"), "two.dsct");
  const sim::ServingStats stats =
      sim::runServing(materializeMachines(capped), capped.serving.policy,
                      makeServingOptions(capped));
  EXPECT_EQ(stats.shardedEpochs, stats.epochs);
  expectSameServing(stats, sim::runServing(materializeMachines(fleetSized),
                                           fleetSized.serving.policy,
                                           makeServingOptions(fleetSized)));
}

TEST(ServingShard, ShardedAvailabilityRunStaysSafe) {
  // Shards + per-machine batteries: cell-sliced caps keep the aware solver
  // from over-assigning any battery.
  sim::ServingOptions options = baseOptions();
  options.shards = 2;
  options.availability.enabled = true;
  options.availability.batteryCapacityJoules = 15.0;
  options.availability.rechargeWatts = 5.0;
  options.availability.seed = 11;
  const sim::ServingStats stats =
      sim::runServing(fleet(), std::string("approx"), options);
  EXPECT_GT(stats.served, 0);
  EXPECT_EQ(stats.batteryExhaustions, 0);
}

// Sharded serving pins: every ServingStats field and the incident log to 17
// digits, captured at commit 0f18d58. The first two were re-pinned when
// FR-OPT's certified search replaced its escape searches (DESIGN.md §25):
// the million-task run's first cell schedules differ in epoch 0, the
// battery run's in epoch 4, each with an FR-OPT value within 1e-9 relative
// of the old one.

TEST(ServingGolden, ShardedMillionTasksBitIdentical) {
  // perfbench's serve-sharded-approx workload: the million-task stream at
  // its pinned seed under approx, shedding off, 8 cells, two epochs.
  Scenario sc = loadScenarioFile(std::string(DSCT_SCENARIO_DIR) +
                                 "/million_tasks.dsct");
  sc.seed = 1000003;
  sc.serving.policy = "approx";
  sc.serving.admissionLoadFactor = 0.0;
  sc.serving.shards = 8;
  sc.serving.horizonSeconds = 2.0;
  const sim::ServingStats s = sim::runServing(
      materializeMachines(sc), sc.serving.policy, makeServingOptions(sc));
  sim::ServingStats golden;
  golden.requests = 9921;
  golden.served = 5188;
  golden.deadlineMisses = 2129;
  golden.missPenalty = 2129.0;
  golden.meanAccuracy = 0.16651946417911545;
  golden.totalEnergy = 9995.7554002442484;
  golden.meanLatency = 1.1806485006382215;
  golden.epochs = 2;
  golden.shardedEpochs = 2;
  golden.shardPriceIterations = 16;
  golden.shardTopUpCells = 8;
  golden.shardTopUpEnergy = 27.127771838069751;
  expectSameServing(s, golden);
}

TEST(ServingGolden, ShardedBatteryDeparturesBitIdentical) {
  // Batteries cap the budget in seven of eight epochs and departures shrink
  // the fleet, so each cell solve gets its slice of the present machines'
  // charges.
  sim::ServingOptions options = baseOptions();
  options.shards = 2;
  options.availability.enabled = true;
  options.availability.batteryCapacityJoules = 12.0;
  options.availability.rechargeWatts = 3.0;
  options.availability.departMtbfSeconds = 2.0;
  options.availability.seed = 11;
  const sim::ServingStats s =
      sim::runServing(fleet(), std::string("approx"), options);
  sim::ServingStats golden;
  golden.requests = 38;
  golden.served = 18;
  golden.meanAccuracy = 0.049425573919394013;
  golden.totalEnergy = 79.5;
  golden.meanLatency = 0.52574101197276146;
  golden.epochs = 8;
  golden.machineDepartures = 9;
  golden.batteryCappedEpochs = 7;
  golden.shardedEpochs = 8;
  golden.shardPriceIterations = 30;
  golden.shardTopUpCells = 10;
  golden.shardTopUpEnergy = 35.932859200926337;
  using K = sim::IncidentKind;
  golden.incidents = {{1, K::kBatteryBudgetCapped, 22.5, 0},
                      {2, K::kMachineDeparted, 2, 0},
                      {2, K::kBatteryBudgetCapped, 3, 0},
                      {3, K::kMachineDeparted, 2, 0},
                      {3, K::kBatteryBudgetCapped, 4.5, 0},
                      {4, K::kMachineDeparted, 1, 0},
                      {4, K::kBatteryBudgetCapped, 6, 0},
                      {5, K::kMachineDeparted, 1, 0},
                      {5, K::kBatteryBudgetCapped, 5.0209588622785013, 0},
                      {6, K::kMachineDeparted, 2, 0},
                      {6, K::kBatteryBudgetCapped, 3.0000000000000004, 0},
                      {7, K::kMachineDeparted, 1, 0},
                      {7, K::kBatteryBudgetCapped, 6.2827667876825668, 0}};
  expectSameServing(s, golden);
}

TEST(ServingGolden, ShardedTopUpBitIdentical) {
  // Three cells on four machines with backlog carry-over: the top-up pass
  // re-solves 24 budget-bound cells over the eight epochs.
  sim::ServingOptions options = baseOptions();
  options.shards = 3;
  options.shardSeed = 5;
  const sim::ServingStats s =
      sim::runServing(fleet(), std::string("approx"), options);
  sim::ServingStats golden;
  golden.requests = 38;
  golden.served = 29;
  golden.meanAccuracy = 0.15767317789799587;
  golden.totalEnergy = 240.0;
  golden.meanLatency = 0.61896229798047642;
  golden.epochs = 8;
  golden.shardedEpochs = 8;
  golden.shardPriceIterations = 55;
  golden.shardTopUpCells = 24;
  golden.shardTopUpEnergy = 34.964620193767274;
  expectSameServing(s, golden);
}

}  // namespace
}  // namespace dsct
