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
using testing::withoutAsyncEpochs;

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

TEST(ServingShard, AsyncShardedRunMatchesSync) {
  // The sharded primary runs on the async pipeline thread like any other
  // solver, with the execution overlap (backlog off) and without it
  // (backlog on): the run matches the synchronous one field for field.
  for (const bool backlog : {false, true}) {
    SCOPED_TRACE(backlog ? "backlog" : "overlap");
    sim::ServingOptions options = baseOptions();
    options.shards = 3;
    options.carryBacklog = backlog;
    const sim::ServingStats sync =
        sim::runServing(fleet(), std::string("approx"), options);
    options.asyncServing = true;
    const sim::ServingStats async =
        sim::runServing(fleet(), std::string("approx"), options);
    expectSameServing(sync, withoutAsyncEpochs(async));
    EXPECT_EQ(async.asyncEpochs, async.epochs);
    EXPECT_EQ(async.shardedEpochs, async.epochs);
  }
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

TEST(ServingShard, ScenarioRejectsMalformedShards) {
  const char* text = R"(
machine class {
  name: pool
  gpus: T4
}
task class {
  name: web
  arrival: poisson 5
}
serving {
  shards: -2
}
)";
  EXPECT_THROW(parseScenario(text, "bad.dsct"), ScenarioError);
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

}  // namespace
}  // namespace dsct
