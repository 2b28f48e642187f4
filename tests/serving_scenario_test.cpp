// Serving-loop integration for the scenario DSL: request-trace replay pins,
// SLA miss-penalty accounting, and trace validation at the driver boundary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/serving.h"
#include "tests/serving_support.h"
#include "util/check.h"
#include "workload/gpu_catalog.h"
#include "workload/scenario.h"

namespace dsct {
namespace {

using testing::expectSameServing;

std::vector<sim::RequestSpec> tightTrace(double penalty) {
  // Deadlines far too tight for the tiny budget below — every request that
  // executes still misses, deterministically.
  std::vector<sim::RequestSpec> trace;
  for (int i = 0; i < 12; ++i) {
    sim::RequestSpec r;
    r.arrival = 0.1 * i;
    r.relDeadline = 0.05;
    r.theta = 2.0;
    r.missPenalty = penalty;
    trace.push_back(r);
  }
  return trace;
}

sim::ServingOptions traceOptions(std::vector<sim::RequestSpec> trace) {
  sim::ServingOptions o;
  o.requestTrace = std::move(trace);
  o.horizonSeconds = 2.0;
  o.epochSeconds = 0.5;
  o.energyBudgetPerEpoch = 0.5;
  return o;
}

TEST(ServingScenario, TraceReplaysBitIdentically) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const sim::ServingOptions options = traceOptions(tightTrace(1.0));
  const sim::ServingStats a = sim::runServing(machines, "approx", options);
  const sim::ServingStats b = sim::runServing(machines, "approx", options);
  expectSameServing(a, b);
}

TEST(ServingScenario, TraceIgnoresTheWorkloadSeed) {
  // A full trace replaces every workload draw, so the driver seed must not
  // move the results.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  sim::ServingOptions options = traceOptions(tightTrace(1.0));
  options.seed = 1;
  const sim::ServingStats a = sim::runServing(machines, "approx", options);
  options.seed = 424242;
  const sim::ServingStats b = sim::runServing(machines, "approx", options);
  expectSameServing(a, b);
}

TEST(ServingScenario, UnitPenaltyEqualsMissCount) {
  const auto machines = machinesFromCatalog({"T4"});
  const sim::ServingStats s =
      sim::runServing(machines, "edf3", traceOptions(tightTrace(1.0)));
  ASSERT_GT(s.deadlineMisses, 0);
  EXPECT_DOUBLE_EQ(s.missPenalty, static_cast<double>(s.deadlineMisses));
}

TEST(ServingScenario, PenaltyScalesWithTheWeight) {
  const auto machines = machinesFromCatalog({"T4"});
  const sim::ServingStats unit =
      sim::runServing(machines, "edf3", traceOptions(tightTrace(1.0)));
  const sim::ServingStats weighted =
      sim::runServing(machines, "edf3", traceOptions(tightTrace(3.0)));
  // Same trace geometry, tripled weight: identical misses, tripled penalty.
  ASSERT_GT(unit.deadlineMisses, 0);
  EXPECT_EQ(weighted.deadlineMisses, unit.deadlineMisses);
  EXPECT_DOUBLE_EQ(weighted.missPenalty, 3.0 * unit.missPenalty);
}

TEST(ServingScenario, ZeroWeightSilencesThePenalty) {
  const auto machines = machinesFromCatalog({"T4"});
  const sim::ServingStats s =
      sim::runServing(machines, "edf3", traceOptions(tightTrace(0.0)));
  ASSERT_GT(s.deadlineMisses, 0);
  EXPECT_DOUBLE_EQ(s.missPenalty, 0.0);
}

TEST(ServingScenario, NoTraceKeepsLegacyAccounting) {
  // The legacy generator path never counts dropped requests as misses and
  // assigns weight 1 everywhere, so the new counter must track the old one
  // exactly (both stay 0 here even though every request is dropped).
  const auto machines = machinesFromCatalog({"T4"});
  sim::ServingOptions o;
  o.horizonSeconds = 3.0;
  o.epochSeconds = 0.5;
  o.energyBudgetPerEpoch = 0.0;  // nothing can execute
  o.relDeadlineLo = 0.05;
  o.relDeadlineHi = 0.2;
  o.seed = 9;
  const sim::ServingStats s = sim::runServing(machines, "edf3", o);
  EXPECT_GT(s.requests, 0);
  EXPECT_EQ(s.served, 0);
  EXPECT_EQ(s.deadlineMisses, 0);
  EXPECT_DOUBLE_EQ(s.missPenalty, 0.0);
}

TEST(ServingScenario, TraceValidation) {
  const auto machines = machinesFromCatalog({"T4"});
  const auto run = [&](std::vector<sim::RequestSpec> trace) {
    sim::runServing(machines, "edf3", traceOptions(std::move(trace)));
  };
  // Descending arrivals.
  {
    auto trace = tightTrace(1.0);
    std::swap(trace.front().arrival, trace.back().arrival);
    EXPECT_THROW(run(std::move(trace)), CheckError);
  }
  // Non-positive relative deadline / theta, negative penalty.
  {
    auto trace = tightTrace(1.0);
    trace[3].relDeadline = 0.0;
    EXPECT_THROW(run(std::move(trace)), CheckError);
  }
  {
    auto trace = tightTrace(1.0);
    trace[3].theta = -1.0;
    EXPECT_THROW(run(std::move(trace)), CheckError);
  }
  {
    auto trace = tightTrace(1.0);
    trace[3].missPenalty = -0.5;
    EXPECT_THROW(run(std::move(trace)), CheckError);
  }
  // Mutually exclusive with explicit arrivalTimes.
  {
    sim::ServingOptions o = traceOptions(tightTrace(1.0));
    o.arrivalTimes = {0.1, 0.2};
    EXPECT_THROW(sim::runServing(machines, "edf3", o), CheckError);
  }
}

TEST(ServingScenario, RejectsMoreEpochsThanAnIntHolds) {
  // EpochIncident keeps the epoch index as an int, so a horizon of 2^31
  // epochs is refused before the first epoch runs.
  const auto machines = machinesFromCatalog({"T4"});
  sim::ServingOptions o = traceOptions(tightTrace(1.0));
  o.horizonSeconds = 0.5 * 2147483648.0;
  EXPECT_THROW(sim::runServing(machines, "edf3", o), CheckError);
  o.horizonSeconds = 1e300;
  EXPECT_THROW(sim::runServing(machines, "edf3", o), CheckError);
}

TEST(ServingScenario, ScenarioRunReplaysBitIdentically) {
  // End-to-end: materialise a parsed scenario and serve it twice — the
  // acceptance pin behind `dsct_cli serve --scenario ... --seed 7`.
  const Scenario sc = parseScenario(
      "scenario {\n  seed: 7\n}\n"
      "machine class {\n  name: p\n  gpus: T4, V100\n}\n"
      "sla class {\n  name: gold\n  tightness: 0.6\n  miss penalty: 4\n}\n"
      "task class {\n  name: web\n  arrival: diurnal 4 30 12\n"
      "  sla: gold\n}\n"
      "serving {\n  horizon: 3\n  epoch: 0.5\n  budget: 10\n"
      "  backlog: on\n}\n");
  const std::vector<Machine> machines = materializeMachines(sc);
  const sim::ServingOptions options = makeServingOptions(sc);
  const sim::ServingStats a = sim::runServing(machines, "approx", options);
  const sim::ServingStats b = sim::runServing(machines, "approx", options);
  expectSameServing(a, b);
  // The gold tier weights every miss by 4.
  if (a.deadlineMisses > 0) {
    EXPECT_DOUBLE_EQ(a.missPenalty, 4.0 * a.deadlineMisses);
  }
}

}  // namespace
}  // namespace dsct
