// Availability-aware serving: bit-identity of the disabled path, seeded
// replay, departure exclusion, battery exhaustion/recharge coupling, and the
// capability-gated EDF-3 hints.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/availability.h"
#include "sim/serving.h"
#include "tests/serving_support.h"
#include "util/check.h"
#include "workload/gpu_catalog.h"

namespace dsct {
namespace {

using testing::expectSameServing;

sim::ServingOptions referenceOptions() {
  sim::ServingOptions o;
  o.arrivalRatePerSecond = 18.0;
  o.horizonSeconds = 5.0;
  o.epochSeconds = 0.5;
  o.relDeadlineLo = 0.4;
  o.relDeadlineHi = 2.5;
  o.energyBudgetPerEpoch = 40.0;
  o.seed = 20240807;
  return o;
}

/// Departing fleet with a finite battery, on top of the reference workload.
sim::ServingOptions availableOptions() {
  sim::ServingOptions o = referenceOptions();
  o.carryBacklog = true;
  o.availability.enabled = true;
  o.availability.seed = 31337;
  o.availability.departMtbfSeconds = 2.0;
  o.availability.departMeanSeconds = 1.0;
  o.availability.batteryCapacityJoules = 14.0;
  o.availability.rechargeWatts = 12.0;
  return o;
}

int countIncidents(const sim::ServingStats& s, sim::IncidentKind kind) {
  int n = 0;
  for (const auto& inc : s.incidents) {
    if (inc.kind == kind) ++n;
  }
  return n;
}

// ---------------------------------------------------------- bit identity --

TEST(AvailabilityServing, InertEnabledRunMatchesDisabledBitForBit) {
  // enabled = true with departures and battery both off must not perturb the
  // run: the trace samples nothing and the driver's own RNG stream is
  // untouched.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  for (const bool backlog : {false, true}) {
    auto options = referenceOptions();
    options.carryBacklog = backlog;
    const auto off = sim::runServing(machines, "approx", options);
    options.availability.enabled = true;  // departMtbf 0, capacity 0
    const auto on = sim::runServing(machines, "approx", options);
    SCOPED_TRACE(backlog ? "backlog" : "one-shot");
    expectSameServing(off, on);
  }
}

TEST(AvailabilityServing, DeterministicReplayBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  const auto options = availableOptions();
  const auto a = sim::runServing(machines, "approx", options);
  const auto b = sim::runServing(machines, "approx", options);
  expectSameServing(a, b);
}

TEST(AvailabilityServing, ReplayUnderFakeClockWithSolveBudget) {
  // The acceptance criterion: an enabled run replays bit-identically from
  // (seed, options) even with the epoch solve budget engaged, because the
  // injected clock removes the only wall-clock dependence.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = availableOptions();
  options.epochTimeLimitSeconds = 0.25;
  options.clock = [] { return 0.0; };  // nothing ever times out
  const auto a = sim::runServing(machines, "approx", options);
  const auto b = sim::runServing(machines, "approx", options);
  expectSameServing(a, b);
  EXPECT_EQ(a.policyTimeouts, 0);
}

// ------------------------------------------------------------ departures --

TEST(AvailabilityServing, DeparturesExcludeMachinesAndAreCounted) {
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  auto options = availableOptions();
  options.availability.batteryCapacityJoules = 0.0;  // departures only
  const auto s = sim::runServing(machines, "approx", options);
  // Every arrival is still finalized exactly once.
  EXPECT_EQ(s.requests, 99);
  EXPECT_GT(s.machineDepartures, 0);
  // Departures are whole-epoch exclusions, not crashes: nothing to interrupt.
  EXPECT_EQ(s.interruptions, 0);
  EXPECT_EQ(s.batteryExhaustions, 0);
  EXPECT_EQ(s.batteryCappedEpochs, 0);
  EXPECT_GT(countIncidents(s, sim::IncidentKind::kMachineDeparted), 0);
  // A shrunken fleet serves less than the always-present one.
  auto present = options;
  present.availability.departMtbfSeconds = 0.0;
  const auto full = sim::runServing(machines, "approx", present);
  EXPECT_LE(s.served, full.served);
}

TEST(AvailabilityServing, AllDepartedEpochsCountAsNoMachineEpochs) {
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.availability.enabled = true;
  options.availability.seed = 11;
  options.availability.departMtbfSeconds = 0.3;  // leaves almost immediately
  options.availability.departMeanSeconds = 4.0;  // and stays away
  const auto s = sim::runServing(machines, "approx", options);
  EXPECT_GT(s.noMachineEpochs, 0);
  EXPECT_GT(s.machineDepartures, 0);
  EXPECT_EQ(s.requests, 99);
}

// --------------------------------------------------------------- battery --

TEST(AvailabilityServing, BatteryExhaustionSpillsThroughRetryPath) {
  // Uncapped global budget + tight stores: an availability-unaware solver
  // (edf runs everything uncompressed) over-assigns, the cut machines
  // interrupt mid-epoch, and the residuals re-enter later batches exactly
  // like crash-interrupted requests. approx no longer qualifies — it
  // advertises availabilityAware and projects the charge caps itself.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  options.carryBacklog = true;
  options.relDeadlineLo = 2.0;  // long deadlines: retries not time-limited
  options.relDeadlineHi = 4.0;
  options.availability.enabled = true;
  options.availability.batteryCapacityJoules = 10.0;
  options.availability.rechargeWatts = 15.0;
  options.availability.capGlobalBudget = false;
  const auto s = sim::runServing(machines, std::string("edf"), options);
  EXPECT_GT(s.batteryExhaustions, 0);
  EXPECT_GT(s.interruptions, 0);
  EXPECT_GT(s.retries, 0);
  EXPECT_GT(countIncidents(s, sim::IncidentKind::kBatteryExhausted), 0);
  EXPECT_EQ(s.machineDepartures, 0);  // battery only, nobody leaves
}

TEST(AvailabilityServing, GlobalBudgetCapBoundsEnergyByStoredCharge) {
  // No recharge + capped budget: the run can never spend more than the
  // fleet's initial store, and the capped epochs are logged with the capped
  // budget as payload.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  options.availability.enabled = true;
  options.availability.batteryCapacityJoules = 12.0;
  options.availability.rechargeWatts = 0.0;
  const auto s = sim::runServing(machines, "approx", options);
  const double initialStore = 2 * 12.0;
  EXPECT_LE(s.totalEnergy, initialStore + 1e-6);
  EXPECT_GT(s.batteryCappedEpochs, 0);
  for (const auto& inc : s.incidents) {
    if (inc.kind == sim::IncidentKind::kBatteryBudgetCapped) {
      EXPECT_LT(inc.value, options.energyBudgetPerEpoch);
      EXPECT_GE(inc.value, 0.0);
    }
  }
  // Recharging strictly adds servable energy.
  auto charged = options;
  charged.availability.rechargeWatts = 20.0;
  const auto c = sim::runServing(machines, "approx", charged);
  EXPECT_GT(c.totalEnergy, s.totalEnergy);
}

// ---------------------------------------------- capability-gated solvers --

TEST(AvailabilityServing, AvailabilityAwareEdf3RespectsPerMachineCharge) {
  // Solvers that advertise availabilityAware (edf3, approx, levels-opt)
  // receive the per-machine charge caps and never over-assign a battery;
  // edf (not aware) relies on the execution-side cut under the same
  // configuration and exhausts stores.
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  auto options = referenceOptions();
  options.carryBacklog = true;
  options.availability.enabled = true;
  options.availability.batteryCapacityJoules = 12.0;
  options.availability.rechargeWatts = 0.0;
  for (const char* aware : {"edf3", "approx", "levels-opt"}) {
    SCOPED_TRACE(aware);
    const auto s = sim::runServing(machines, std::string(aware), options);
    EXPECT_EQ(s.batteryExhaustions, 0);
    EXPECT_EQ(countIncidents(s, sim::IncidentKind::kBatteryExhausted), 0);
  }
  const auto unaware = sim::runServing(machines, std::string("edf"), options);
  EXPECT_GT(unaware.batteryExhaustions, 0);
}

}  // namespace
}  // namespace dsct
