// Smoke loop over the shipped scenario zoo (scenarios/*.dsct): every file
// must parse, materialise, and — horizon-clamped so the battery stays fast —
// serve end-to-end under its own policy, identically with async serving on.
// The million-task stress file is additionally pinned to materialise its
// full ~1M-request trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/serving.h"
#include "tests/serving_support.h"
#include "workload/scenario.h"

namespace dsct {
namespace {

using testing::expectSameServing;
using testing::withoutAsyncEpochs;

std::vector<std::filesystem::path> zooFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(DSCT_SCENARIO_DIR)) {
    if (entry.path().extension() == ".dsct") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ScenarioZoo, ShipsTheSixNamedWorkloads) {
  std::vector<std::string> names;
  for (const auto& path : zooFiles()) names.push_back(path.stem().string());
  const std::vector<std::string> expected{"diurnal",       "flash_crowd",
                                          "million_tasks", "mixed_sla",
                                          "steady_web",    "volunteer_fleet"};
  EXPECT_EQ(names, expected);
}

TEST(ScenarioZoo, EveryFileParsesAndMaterialises) {
  for (const auto& path : zooFiles()) {
    SCOPED_TRACE(path.string());
    const Scenario sc = loadScenarioFile(path.string());
    EXPECT_FALSE(sc.name.empty());
    EXPECT_FALSE(materializeMachines(sc).empty());
    EXPECT_FALSE(materializeRequests(sc).empty());
    const Instance inst = materializeInstance(sc);
    EXPECT_GT(inst.numTasks(), 0);
    EXPECT_GT(inst.energyBudget(), 0.0);
  }
}

TEST(ScenarioZoo, EveryFileServesEndToEnd) {
  for (const auto& path : zooFiles()) {
    SCOPED_TRACE(path.string());
    Scenario sc = loadScenarioFile(path.string());
    // Clamp BEFORE materialisation (exactly what serve --horizon does) so
    // the stress file serves a short prefix instead of its full 200 s.
    sc.serving.horizonSeconds = std::min(sc.serving.horizonSeconds, 2.0);
    const std::vector<Machine> machines = materializeMachines(sc);
    sim::ServingOptions options = makeServingOptions(sc);
    const sim::ServingStats stats =
        sim::runServing(machines, sc.serving.policy, options);
    EXPECT_EQ(static_cast<std::size_t>(stats.requests),
              options.requestTrace.size());
    EXPECT_GT(stats.epochs, 0);
    EXPECT_GE(stats.missPenalty, 0.0);
    // The async pipeline solves every epoch that has a machine to solve for
    // and changes nothing else, request trace and all.
    options.asyncServing = true;
    const sim::ServingStats async =
        sim::runServing(machines, sc.serving.policy, options);
    EXPECT_EQ(async.asyncEpochs, async.epochs - async.noMachineEpochs);
    expectSameServing(stats, withoutAsyncEpochs(async));
  }
}

TEST(ScenarioZoo, MillionTaskStressMaterialisesFullTrace) {
  const Scenario sc = loadScenarioFile(std::string(DSCT_SCENARIO_DIR) +
                                       "/million_tasks.dsct");
  EXPECT_DOUBLE_EQ(sc.serving.horizonSeconds, 200.0);
  const std::vector<sim::RequestSpec> trace = materializeRequests(sc);
  // 5000 req/s × 200 s — a Poisson count within ±1% of one million.
  EXPECT_GT(trace.size(), 990'000u);
  EXPECT_LT(trace.size(), 1'010'000u);
  EXPECT_TRUE(std::is_sorted(
      trace.begin(), trace.end(),
      [](const sim::RequestSpec& a, const sim::RequestSpec& b) {
        return a.arrival < b.arrival;
      }));
}

TEST(ScenarioZoo, FlashCrowdShedsOnlyInItsBurst) {
  // Served over its full horizon, the flash crowd sheds, and only once its
  // spike (t = 4 s) has begun; async serving changes nothing.
  const Scenario sc = loadScenarioFile(std::string(DSCT_SCENARIO_DIR) +
                                       "/flash_crowd.dsct");
  const std::vector<Machine> machines = materializeMachines(sc);
  sim::ServingOptions options = makeServingOptions(sc);
  const sim::ServingStats stats =
      sim::runServing(machines, sc.serving.policy, options);
  EXPECT_GT(stats.shed, 0);
  const auto spikeEpoch = static_cast<long long>(4.0 / sc.serving.epochSeconds);
  for (const sim::EpochIncident& inc : stats.incidents) {
    if (inc.kind == sim::IncidentKind::kAdmissionShed) {
      EXPECT_GE(inc.epoch, spikeEpoch);
    }
  }
  options.asyncServing = true;
  const sim::ServingStats async =
      sim::runServing(machines, sc.serving.policy, options);
  expectSameServing(stats, withoutAsyncEpochs(async));
}

TEST(ServingGolden, MillionTasksShedPathBitIdentical) {
  // The firehose as shipped (edf3, load factor 6), clamped to three epochs
  // before materialisation: ~96% of the trace is shed on arrival, and every
  // shed request that expires inside the horizon is a trace-mode miss.
  // Every ServingStats field pinned; captured at commit bf5cdf4, before
  // shedding stopped building the curves of the requests it drops.
  Scenario sc = loadScenarioFile(std::string(DSCT_SCENARIO_DIR) +
                                 "/million_tasks.dsct");
  sc.serving.horizonSeconds = 3.0;
  const sim::ServingStats s = sim::runServing(
      materializeMachines(sc), sc.serving.policy, makeServingOptions(sc));
  sim::ServingStats golden;
  golden.requests = 14977;
  golden.served = 396;
  golden.deadlineMisses = 8379;
  golden.missPenalty = 8379.0;
  golden.meanAccuracy = 0.021441610469389315;
  golden.totalEnergy = 14877.201099224105;
  golden.meanLatency = 1.2528186213589743;
  golden.epochs = 3;
  golden.shed = 14401;
  using K = sim::IncidentKind;
  golden.incidents = {{0, K::kAdmissionShed, 4806, 0},
                      {1, K::kAdmissionShed, 4731, 0},
                      {2, K::kAdmissionShed, 4864, 0}};
  expectSameServing(s, golden);
}

TEST(ScenarioZoo, MixedSlaWeightsDivergeFromRawMisses) {
  // The mixed-SLA scenario's tiers carry non-unit penalties, so whenever a
  // run misses deadlines the weighted penalty must differ from the raw
  // count. Squeeze the budget to force misses.
  Scenario sc = loadScenarioFile(std::string(DSCT_SCENARIO_DIR) +
                                 "/mixed_sla.dsct");
  sc.serving.horizonSeconds = 4.0;
  sc.serving.energyBudgetPerEpoch = 0.05;
  const sim::ServingOptions options = makeServingOptions(sc);
  const sim::ServingStats stats = sim::runServing(
      materializeMachines(sc), sc.serving.policy, options);
  ASSERT_GT(stats.deadlineMisses, 0);
  EXPECT_NE(stats.missPenalty, static_cast<double>(stats.deadlineMisses));
}

}  // namespace
}  // namespace dsct
