// Renewable power traces (the paper's future-work item 1, Section 7).
#include <gtest/gtest.h>

#include "sim/renewable.h"
#include "sim/serving.h"
#include "tests/serving_support.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/gpu_catalog.h"

namespace dsct {
namespace {

// ------------------------------------------------------------- renewable --

TEST(PowerTrace, ConstantTrace) {
  const auto trace = sim::PowerTrace::constant(100.0);
  EXPECT_DOUBLE_EQ(trace.powerAt(0.0), 100.0);
  EXPECT_DOUBLE_EQ(trace.powerAt(1e6), 100.0);
  EXPECT_DOUBLE_EQ(trace.powerAt(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(trace.energyBetween(2.0, 5.0), 300.0);
}

TEST(PowerTrace, PiecewiseEnergyIntegral) {
  const sim::PowerTrace trace({0.0, 10.0, 20.0}, {50.0, 100.0, 0.0});
  EXPECT_DOUBLE_EQ(trace.powerAt(5.0), 50.0);
  EXPECT_DOUBLE_EQ(trace.powerAt(10.0), 100.0);
  EXPECT_DOUBLE_EQ(trace.powerAt(25.0), 0.0);
  EXPECT_DOUBLE_EQ(trace.energyBetween(0.0, 20.0), 1500.0);
  EXPECT_DOUBLE_EQ(trace.energyBetween(5.0, 15.0), 250.0 + 500.0);
  EXPECT_DOUBLE_EQ(trace.energyBetween(20.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(trace.energyBetween(3.0, 3.0), 0.0);
}

TEST(PowerTrace, ValidatesInput) {
  EXPECT_THROW(sim::PowerTrace({}, {}), CheckError);
  EXPECT_THROW(sim::PowerTrace({1.0}, {5.0}), CheckError);  // must start at 0
  EXPECT_THROW(sim::PowerTrace({0.0, 0.0}, {1.0, 2.0}), CheckError);
  EXPECT_THROW(sim::PowerTrace({0.0}, {-1.0}), CheckError);
  const sim::PowerTrace ok({0.0}, {1.0});
  EXPECT_THROW(ok.energyBetween(5.0, 1.0), CheckError);
}

TEST(PowerTrace, SolarDayShape) {
  Rng rng(4);
  const auto trace =
      sim::PowerTrace::solarDay(1000.0, 86400.0, 0.25, 0.75, 96, 0.0, rng);
  // Night is dark.
  EXPECT_DOUBLE_EQ(trace.powerAt(0.0), 0.0);
  EXPECT_DOUBLE_EQ(trace.powerAt(86000.0), 0.0);
  // Noon is near peak (sampled, so slightly below).
  EXPECT_GT(trace.powerAt(43200.0), 950.0);
  EXPECT_LE(trace.peakPower(), 1000.0 + 1e-9);
  // Morning ramps up.
  EXPECT_LT(trace.powerAt(23000.0), trace.powerAt(40000.0));
}

TEST(PowerTrace, SolarNoiseStaysNonNegative) {
  Rng rng(9);
  const auto trace =
      sim::PowerTrace::solarDay(500.0, 1000.0, 0.2, 0.8, 64, 0.5, rng);
  for (double t = 0.0; t < 1000.0; t += 7.3) {
    EXPECT_GE(trace.powerAt(t), 0.0);
  }
}

TEST(RenewableServing, BudgetFollowsSupply) {
  const auto machines = machinesFromCatalog({"T4"});
  sim::ServingOptions options;
  options.arrivalRatePerSecond = 20.0;
  options.horizonSeconds = 4.0;
  options.epochSeconds = 1.0;
  options.seed = 5;
  // Power only in the second half of the horizon.
  const sim::PowerTrace supply({0.0, 2.0}, {0.0, 200.0});
  const sim::ServingStats stats =
      sim::runServing(machines, "approx", options, &supply);
  EXPECT_GT(stats.requests, 0);
  // Total energy cannot exceed what the supply provided.
  EXPECT_LE(stats.totalEnergy,
            supply.energyBetween(0.0, options.horizonSeconds) + 1e-6);
  // Some requests are served once power arrives.
  EXPECT_GT(stats.served, 0);
}

TEST(RenewableServing, ZeroSupplyServesNothing) {
  const auto machines = machinesFromCatalog({"T4"});
  sim::ServingOptions options;
  options.horizonSeconds = 2.0;
  options.seed = 6;
  const sim::PowerTrace dark = sim::PowerTrace::constant(0.0);
  const sim::ServingStats stats =
      sim::runServing(machines, "approx", options, &dark);
  EXPECT_EQ(stats.served, 0);
  EXPECT_DOUBLE_EQ(stats.totalEnergy, 0.0);
}

TEST(RenewableServing, MoreSunMoreAccuracy) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  sim::ServingOptions options;
  options.arrivalRatePerSecond = 40.0;
  options.horizonSeconds = 4.0;
  options.epochSeconds = 0.5;
  options.seed = 7;
  Rng rng(1);
  const auto dim =
      sim::PowerTrace::solarDay(30.0, 4.0, 0.0, 1.0, 32, 0.0, rng);
  const auto bright =
      sim::PowerTrace::solarDay(300.0, 4.0, 0.0, 1.0, 32, 0.0, rng);
  const auto dimStats = sim::runServing(machines, "approx", options, &dim);
  const auto brightStats =
      sim::runServing(machines, "approx", options, &bright);
  EXPECT_GT(brightStats.meanAccuracy, dimStats.meanAccuracy);
}

TEST(RenewableServing, AsyncMatchesSync) {
  // The supply sets each epoch's budget before the primary solve is
  // submitted, so async serving — with the execution overlap, and without
  // it under backlog carry-over — serves exactly the synchronous run.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  sim::ServingOptions options;
  options.arrivalRatePerSecond = 40.0;
  options.horizonSeconds = 4.0;
  options.epochSeconds = 0.5;
  options.seed = 7;
  Rng rng(3);
  const auto supply =
      sim::PowerTrace::solarDay(120.0, 4.0, 0.0, 1.0, 32, 0.2, rng);
  for (const bool backlog : {false, true}) {
    SCOPED_TRACE(backlog ? "backlog" : "overlap");
    options.carryBacklog = backlog;
    options.asyncServing = false;
    const auto sync = sim::runServing(machines, "approx", options, &supply);
    options.asyncServing = true;
    const auto async = sim::runServing(machines, "approx", options, &supply);
    testing::expectSameServing(sync, testing::withoutAsyncEpochs(async));
    EXPECT_EQ(async.asyncEpochs, async.epochs);
    EXPECT_GT(sync.served, 0);
  }
}

}  // namespace
}  // namespace dsct
