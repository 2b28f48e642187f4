// Fault-tolerant serving: regression-pinned default path, deterministic
// fault replay, crash/shock recovery, fallback chain, admission control.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/faults.h"
#include "sim/renewable.h"
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

// The pinned values below were captured from the pre-fault driver (commit
// f247675) with the exact options of referenceOptions(); they guard the
// acceptance criterion that the faults-disabled path stays bit-identical.

TEST(ServingGolden, DefaultPathOneShotBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const auto s = sim::runServing(machines, "approx", referenceOptions());
  EXPECT_EQ(s.requests, 99);
  EXPECT_EQ(s.served, 77);
  EXPECT_EQ(s.deadlineMisses, 0);
  EXPECT_EQ(s.epochs, 10);
  EXPECT_DOUBLE_EQ(s.meanAccuracy, 0.32768861033259078);
  EXPECT_DOUBLE_EQ(s.totalEnergy, 399.99999999999994);
  EXPECT_DOUBLE_EQ(s.meanLatency, 0.33759255283732392);
  EXPECT_EQ(s.interruptions, 0);
  EXPECT_EQ(s.fallbacks, 0);
  EXPECT_TRUE(s.incidents.empty());
}

TEST(ServingGolden, DefaultPathBacklogBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  options.carryBacklog = true;
  const auto s = sim::runServing(machines, "approx", options);
  EXPECT_EQ(s.requests, 99);
  EXPECT_EQ(s.served, 75);
  EXPECT_DOUBLE_EQ(s.meanAccuracy, 0.33395318251464207);
  EXPECT_DOUBLE_EQ(s.totalEnergy, 399.99999999999994);
  EXPECT_DOUBLE_EQ(s.meanLatency, 0.43272136877206679);
}

TEST(ServingGolden, DefaultPathEdfLevelsBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const auto s = sim::runServing(machines, "edf3", referenceOptions());
  EXPECT_EQ(s.served, 31);
  EXPECT_DOUBLE_EQ(s.meanAccuracy, 0.15260606060606044);
  EXPECT_DOUBLE_EQ(s.totalEnergy, 387.78426112463819);
  EXPECT_DOUBLE_EQ(s.meanLatency, 0.30709088392940115);
}

TEST(ServingGolden, DefaultPathRenewableBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const auto options = referenceOptions();
  const sim::PowerTrace supply({0.0, 2.0}, {30.0, 140.0});
  const auto s = sim::runServing(machines, "approx", options, &supply);
  EXPECT_EQ(s.served, 75);
  EXPECT_DOUBLE_EQ(s.meanAccuracy, 0.34670914302531713);
  EXPECT_DOUBLE_EQ(s.totalEnergy, 479.99999999999994);
  EXPECT_DOUBLE_EQ(s.meanLatency, 0.36691141180828091);
}

// Generator path with caller-supplied arrival times: every request's
// deadline and θ still come from the workload RNG, in arrival order. The
// last epoch is [4.5, 5.0) under a 4.75 s horizon, so the arrival at 4.75
// is admitted and counted, while the one at 5.25 never is.
sim::ServingOptions explicitArrivalsOptions() {
  auto options = referenceOptions();
  options.horizonSeconds = 4.75;
  options.carryBacklog = true;
  for (int i = 0; i < 60; ++i) {
    options.arrivalTimes.push_back(0.075 * i + 0.01 * (i % 3));
  }
  options.arrivalTimes.push_back(4.75);
  options.arrivalTimes.push_back(5.25);
  return options;
}

void expectExplicitArrivalsGolden(const sim::ServingStats& s) {
  EXPECT_EQ(s.requests, 61);
  EXPECT_EQ(s.served, 56);
  EXPECT_EQ(s.deadlineMisses, 0);
  EXPECT_EQ(s.epochs, 10);
  EXPECT_EQ(s.meanAccuracy, 0.44134763362149548);
  EXPECT_EQ(s.totalEnergy, 399.99999999999994);
  EXPECT_EQ(s.meanLatency, 0.41089195574610843);
  EXPECT_TRUE(s.incidents.empty());
}

TEST(ServingGolden, ExplicitArrivalsBacklogBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const auto s = sim::runServing(machines, "approx", explicitArrivalsOptions());
  expectExplicitArrivalsGolden(s);
}

TEST(ServingGolden, AvailabilityDefaultsPreserveGoldenPin) {
  // availability.enabled defaults to false; even with every other
  // availability knob set, the disabled layer must not perturb the pinned
  // default path by a single bit (no RNG draws, no machine filtering).
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  options.availability.seed = 777;
  options.availability.departMtbfSeconds = 0.5;
  options.availability.departMeanSeconds = 2.0;
  options.availability.batteryCapacityJoules = 5.0;
  options.availability.rechargeWatts = 1.0;
  ASSERT_FALSE(options.availability.enabled);
  const auto s = sim::runServing(machines, "approx", options);
  EXPECT_EQ(s.requests, 99);
  EXPECT_EQ(s.served, 77);
  EXPECT_DOUBLE_EQ(s.meanAccuracy, 0.32768861033259078);
  EXPECT_DOUBLE_EQ(s.totalEnergy, 399.99999999999994);
  EXPECT_DOUBLE_EQ(s.meanLatency, 0.33759255283732392);
  EXPECT_EQ(s.machineDepartures, 0);
  EXPECT_EQ(s.batteryExhaustions, 0);
  EXPECT_EQ(s.batteryCappedEpochs, 0);
  EXPECT_TRUE(s.incidents.empty());
}

// ------------------------------------------------------------ satellites --

TEST(ServingOptionsCheck, ExplicitTraceDoesNotRequirePositiveRate) {
  const auto machines = machinesFromCatalog({"T4"});
  sim::ServingOptions options = referenceOptions();
  options.arrivalTimes = {0.1, 0.4, 1.2, 2.7};
  options.arrivalRatePerSecond = 0.0;  // unused and must not be rejected
  const auto s = sim::runServing(machines, "approx", options);
  EXPECT_EQ(s.requests, 4);
  // Without a trace, a non-positive rate is still an error.
  options.arrivalTimes.clear();
  EXPECT_THROW(sim::runServing(machines, "approx", options),
               CheckError);
}

// ------------------------------------------------------- fault injection --

sim::ServingOptions faultyOptions() {
  sim::ServingOptions o = referenceOptions();
  o.carryBacklog = true;
  o.faults.enabled = true;
  o.faults.seed = 99;
  o.faults.mtbfSeconds = 2.0;
  o.faults.mttrSeconds = 1.0;
  o.faults.slowdownMtbfSeconds = 3.0;
  o.faults.slowdownMeanSeconds = 0.8;
  o.faults.slowdownFactor = 0.5;
  o.faults.budgetShockProbability = 0.5;
  o.faults.budgetShockFactor = 0.3;
  o.faults.maxRetries = 2;
  o.faults.injectPolicyFailureEpochs = {3};
  return o;
}

TEST(ServingGolden, FaultRecoveryBacklogBitIdentical) {
  // Crashes, stragglers, budget shocks and an injected primary failure with
  // backlog carry-over: interrupted requests re-enter later batches through
  // the retry path. Captured at commit d7032d6, before the serving loop's
  // solve, execute and request paths were merged into one.
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  const auto s = sim::runServing(machines, "approx", faultyOptions());
  EXPECT_EQ(s.requests, 99);
  EXPECT_EQ(s.served, 50);
  EXPECT_EQ(s.deadlineMisses, 0);
  EXPECT_EQ(s.missPenalty, 0.0);
  EXPECT_EQ(s.epochs, 10);
  EXPECT_EQ(s.meanAccuracy, 0.14843503861787527);
  EXPECT_EQ(s.totalEnergy, 149.95986778118993);
  EXPECT_EQ(s.meanLatency, 0.68192759399117764);
  EXPECT_EQ(s.interruptions, 18);
  EXPECT_EQ(s.retries, 14);
  EXPECT_EQ(s.abandoned, 0);
  EXPECT_EQ(s.fallbacks, 1);
  EXPECT_EQ(s.policyFailures, 1);
  EXPECT_EQ(s.budgetShockEpochs, 5);
  EXPECT_EQ(s.noMachineEpochs, 2);
  using K = sim::IncidentKind;
  const std::vector<sim::EpochIncident> incidents = {
      {0, K::kBudgetShock, 0.3, 0},     {2, K::kBudgetShock, 0.3, 0},
      {3, K::kBudgetShock, 0.3, 0},     {3, K::kPolicyFailure, 0.0, 0},
      {3, K::kFallbackEngaged, 0.0, 0}, {4, K::kBudgetShock, 0.3, 0},
      {6, K::kNoAliveMachines, 0.0, 0}, {8, K::kBudgetShock, 0.3, 0},
      {9, K::kNoAliveMachines, 0.0, 0},
  };
  EXPECT_EQ(s.incidents, incidents);
}

TEST(ServingGolden, ShedBacklogFaultsBitIdentical) {
  // Admission control over carried and fresh requests, with crashes that
  // leave epochs without a machine: the shed path and the no-machine path
  // of the generator stream, every ServingStats field pinned. Captured at
  // commit bf5cdf4, before shedding stopped building the curves of the
  // requests it drops.
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.arrivalRatePerSecond = 40.0;
  options.carryBacklog = true;
  options.admissionLoadFactor = 3.0;
  options.faults.enabled = true;
  options.faults.seed = 7;
  options.faults.mtbfSeconds = 1.0;
  options.faults.mttrSeconds = 1.0;
  sim::ServingStats golden;
  golden.requests = 222;
  golden.served = 9;
  golden.meanAccuracy = 0.024037336085028272;
  golden.totalEnergy = 156.1466260659522;
  golden.meanLatency = 1.0431963628230936;
  golden.epochs = 10;
  golden.interruptions = 1;
  golden.retries = 1;
  golden.shed = 116;
  golden.noMachineEpochs = 6;
  using K = sim::IncidentKind;
  golden.incidents = {
      {0, K::kAdmissionShed, 19, 0},   {1, K::kAdmissionShed, 16, 0},
      {2, K::kAdmissionShed, 17, 0},   {3, K::kNoAliveMachines, 0, 0},
      {4, K::kNoAliveMachines, 0, 0},  {5, K::kNoAliveMachines, 0, 0},
      {6, K::kAdmissionShed, 64, 0},   {7, K::kNoAliveMachines, 0, 0},
      {8, K::kNoAliveMachines, 0, 0},  {9, K::kNoAliveMachines, 0, 0},
  };
  expectSameServing(sim::runServing(machines, "approx", options), golden);
}

TEST(FaultServing, DeterministicReplayBitIdentical) {
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  const auto options = faultyOptions();
  const auto a = sim::runServing(machines, "approx", options);
  const auto b = sim::runServing(machines, "approx", options);
  expectSameServing(a, b);
}

TEST(FaultServing, CrashShockAndInjectedFailureRecover) {
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  const auto options = faultyOptions();
  const auto s = sim::runServing(machines, "approx", options);
  // The run completes (no throw) and every arrival is finalized once.
  EXPECT_EQ(s.requests, 99);
  // The injected epoch-3 failure engaged the kEdfLevels fallback.
  EXPECT_GE(s.policyFailures, 1);
  EXPECT_GE(s.fallbacks, 1);
  // MTBF 2 s over a 5 s horizon on 3 machines: crashes interrupt work...
  EXPECT_GT(s.interruptions, 0);
  // ...and interrupted requests re-enter later batches.
  EXPECT_GT(s.retries, 0);
  // Budget shocks hit with probability 0.5 over 10 epochs.
  EXPECT_GT(s.budgetShockEpochs, 0);
  // Every schedule passed the per-epoch validator gate.
  EXPECT_EQ(s.validatorRejections, 0);
  // The incident log names each counted event.
  EXPECT_GE(static_cast<int>(s.incidents.size()),
            s.policyFailures + s.fallbacks + s.budgetShockEpochs);
  // Delivered accuracy degrades but the service still serves.
  EXPECT_GT(s.served, 0);
  EXPECT_GT(s.meanAccuracy, 0.0);
  const auto clean = sim::runServing(machines, "approx", [] {
    auto o = faultyOptions();
    o.faults = sim::FaultOptions{};
    return o;
  }());
  EXPECT_LT(s.meanAccuracy, clean.meanAccuracy);
}

TEST(FaultServing, ZeroRateFaultTraceMatchesDisabled) {
  // faults.enabled with every fault process switched off must not perturb
  // the run: same arrivals, same schedules, same stats.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  options.carryBacklog = true;
  const auto off = sim::runServing(machines, "approx", options);
  options.faults.enabled = true;  // all rates stay zero
  const auto on = sim::runServing(machines, "approx", options);
  expectSameServing(off, on);
}

TEST(FaultServing, AllMachinesDownEpochsAreCounted) {
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.faults.enabled = true;
  options.faults.seed = 7;
  options.faults.mtbfSeconds = 0.7;  // one machine, crashing constantly
  options.faults.mttrSeconds = 2.0;
  const auto s = sim::runServing(machines, "approx", options);
  EXPECT_GT(s.noMachineEpochs, 0);
  EXPECT_EQ(s.requests, 99);
}

TEST(FaultServing, RetryBudgetBoundsReadmissions) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = faultyOptions();
  options.faults.injectPolicyFailureEpochs.clear();
  options.faults.budgetShockProbability = 0.0;
  options.relDeadlineLo = 3.0;  // long deadlines: retries not time-limited
  options.relDeadlineHi = 5.0;
  options.faults.maxRetries = 0;  // interrupted once → abandoned
  options.carryBacklog = false;
  const auto s = sim::runServing(machines, "approx", options);
  EXPECT_GT(s.interruptions, 0);
  EXPECT_EQ(s.retries, 0);
  EXPECT_GT(s.abandoned, 0);

  options.faults.maxRetries = 3;
  const auto relaxed = sim::runServing(machines, "approx", options);
  EXPECT_GT(relaxed.retries, 0);
}

TEST(FaultServing, InjectedFailureOnEdfLevelsFallsBackToEmptyEpoch) {
  // When the primary policy IS the fallback policy, an injected failure
  // leaves only the empty schedule: the epoch serves nothing but the run
  // still completes and counts the incident.
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.faults.enabled = true;
  options.faults.injectPolicyFailureEpochs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto s = sim::runServing(machines, "edf3", options);
  EXPECT_EQ(s.served, 0);
  EXPECT_EQ(s.policyFailures, s.epochs);
  EXPECT_EQ(s.fallbacks, s.epochs);
  bool sawEmpty = false;
  for (const auto& inc : s.incidents) {
    if (inc.kind == sim::IncidentKind::kEmptySchedule) sawEmpty = true;
  }
  EXPECT_TRUE(sawEmpty);
}

TEST(FaultServing, AdmissionControlShedsLowestHeadroom) {
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.arrivalRatePerSecond = 40.0;
  options.validateEpochs = true;  // engage the guarded path without faults
  options.admissionLoadFactor = 3.0;  // ≤ 3 requests per epoch on 1 machine
  const auto s = sim::runServing(machines, "approx", options);
  options.admissionLoadFactor = 0.0;
  const auto unshed = sim::runServing(machines, "approx", options);
  EXPECT_GT(s.shed, 0);
  // Shed requests are still finalized exactly once: same arrival stream,
  // same request count.
  EXPECT_EQ(s.requests, unshed.requests);
  bool sawShed = false;
  for (const auto& inc : s.incidents) {
    if (inc.kind == sim::IncidentKind::kAdmissionShed) {
      sawShed = true;
      EXPECT_GT(inc.value, 0.0);
    }
  }
  EXPECT_TRUE(sawShed);
}

TEST(FaultServing, HugeLoadFactorShedsNothing) {
  // A cap of ceil(load factor × machines) at or past 2^64 admits everyone;
  // converting it to size_t used to be undefined (0 on x86-64, so one
  // request per epoch was kept).
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  options.arrivalRatePerSecond = 40.0;
  options.seed = 7;
  const auto unshed = sim::runServing(machines, "approx", options);
  for (double loadFactor : {1e19, 1e300}) {
    SCOPED_TRACE(loadFactor);
    options.admissionLoadFactor = loadFactor;
    expectSameServing(sim::runServing(machines, "approx", options), unshed);
  }
}

TEST(FaultServing, ValidatedEpochsMatchUnguardedRun) {
  // validateEpochs only gates infeasible schedules; with a well-behaved
  // policy the guarded run must reproduce the unguarded stats exactly.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = referenceOptions();
  const auto plain = sim::runServing(machines, "approx", options);
  options.validateEpochs = true;
  const auto gated = sim::runServing(machines, "approx", options);
  expectSameServing(plain, gated);
}

// -------------------------------------------------------- fallback chain --

TEST(FallbackChain, ExplicitDefaultChainBitIdenticalToDefault) {
  // Spelling out the default single-entry chain changes nothing: the
  // refactor's configurable chain reproduces the historical hardcoded
  // EDF-3-levels demotion exactly.
  const auto machines = machinesFromCatalog({"T4", "V100", "P100"});
  auto explicitChain = faultyOptions();
  explicitChain.fallbackChain = {"edf3"};
  expectSameServing(
      sim::runServing(machines, "approx", faultyOptions()),
      sim::runServing(machines, "approx", explicitChain));
}

TEST(FallbackChain, TwoEntryChainIncidentOrderPinned) {
  // Primary and first fallback are both fault-injected (injectFailureDepth
  // = 2), so each injected epoch must walk: approx fails (depth 0) → edf
  // fails (depth 1) → edf3 serves → fallback engaged. The second fallback's
  // schedules are what a single-entry {"edf3"} chain with primary-only
  // injection produces, so the served workload is bit-identical to that run
  // even though the incident log is longer.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const std::vector<long long> injected = {2, 5};

  auto deep = referenceOptions();
  deep.faults.enabled = true;
  deep.faults.injectPolicyFailureEpochs = injected;
  deep.faults.injectFailureDepth = 2;
  deep.fallbackChain = {"edf", "edf3"};
  const auto a = sim::runServing(machines, std::string("approx"), deep);

  auto shallow = referenceOptions();
  shallow.faults.enabled = true;
  shallow.faults.injectPolicyFailureEpochs = injected;
  const auto b = sim::runServing(machines, std::string("approx"), shallow);

  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served, b.served);
  EXPECT_DOUBLE_EQ(a.meanAccuracy, b.meanAccuracy);
  EXPECT_DOUBLE_EQ(a.totalEnergy, b.totalEnergy);
  EXPECT_DOUBLE_EQ(a.meanLatency, b.meanLatency);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  // ...but the deep run logged one extra failed attempt per injected epoch.
  EXPECT_EQ(b.policyFailures, static_cast<int>(injected.size()));
  EXPECT_EQ(a.policyFailures, 2 * static_cast<int>(injected.size()));

  for (long long epoch : injected) {
    std::vector<sim::EpochIncident> atEpoch;
    for (const auto& inc : a.incidents) {
      if (inc.epoch == epoch) atEpoch.push_back(inc);
    }
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    ASSERT_EQ(atEpoch.size(), 3u);
    EXPECT_EQ(atEpoch[0].kind, sim::IncidentKind::kPolicyFailure);
    EXPECT_EQ(atEpoch[0].value, 0.0);  // the primary policy
    EXPECT_EQ(atEpoch[1].kind, sim::IncidentKind::kPolicyFailure);
    EXPECT_EQ(atEpoch[1].value, 1.0);  // first fallback attempt
    EXPECT_EQ(atEpoch[2].kind, sim::IncidentKind::kFallbackEngaged);
  }
}

TEST(FallbackChain, ExhaustedChainServesEmptyEpoch) {
  // Injection depth covering the whole chain leaves only the empty
  // schedule; the epoch serves nothing but the run completes.
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.faults.enabled = true;
  options.faults.injectPolicyFailureEpochs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  options.faults.injectFailureDepth = 3;
  options.fallbackChain = {"edf", "edf3"};
  const auto s = sim::runServing(machines, std::string("approx"), options);
  EXPECT_EQ(s.served, 0);
  EXPECT_EQ(s.policyFailures, 3 * s.epochs);
  int empty = 0;
  for (const auto& inc : s.incidents) {
    if (inc.kind == sim::IncidentKind::kEmptySchedule) ++empty;
  }
  EXPECT_EQ(empty, s.epochs);
}

TEST(FallbackChain, InvalidChainEntriesFailLoudly) {
  const auto machines = machinesFromCatalog({"T4"});
  auto options = referenceOptions();
  options.faults.enabled = true;
  options.fallbackChain = {"no-such-solver"};
  EXPECT_THROW(sim::runServing(machines, "approx", options),
               CheckError);
  // Fractional-only solvers cannot serve epochs.
  options.fallbackChain = {"fr-opt"};
  EXPECT_THROW(sim::runServing(machines, "approx", options),
               CheckError);
  options.fallbackChain = {"edf3"};
  EXPECT_THROW(
      sim::runServing(machines, std::string("fr-opt"), options),
      CheckError);
}

TEST(FallbackChain, RegistryPolicyBeyondLegacyEnumServes) {
  // Any integral registry solver serves, not only approx, edf and edf3.
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const auto s = sim::runServing(machines, std::string("levels-opt"),
                                 referenceOptions());
  EXPECT_EQ(s.requests, 99);
  EXPECT_GT(s.served, 0);
  EXPECT_GT(s.meanAccuracy, 0.0);
}

TEST(FaultServing, WorksWithRenewableSupply) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = faultyOptions();
  const sim::PowerTrace supply({0.0, 2.0}, {40.0, 160.0});
  const auto a = sim::runServing(machines, "approx", options, &supply);
  const auto b = sim::runServing(machines, "approx", options, &supply);
  EXPECT_EQ(a.requests, 99);
  expectSameServing(a, b);
}

}  // namespace
}  // namespace dsct
