// The exact serving comparison of tests/serving_support.h, checked on
// hand-built stats: a one-count or one-ulp change in any compared field
// fails exactly the expectation on that field.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/serving.h"
#include "tests/serving_support.h"

namespace dsct {
namespace {

using testing::expectSameServing;

/// Stats with every field set to a distinct non-zero value.
sim::ServingStats populated() {
  sim::ServingStats s;
  s.requests = 101;
  s.served = 77;
  s.deadlineMisses = 3;
  s.missPenalty = 2.5;
  s.meanAccuracy = 0.32768861033259078;
  s.totalEnergy = 399.99999999999994;
  s.meanLatency = 0.33759255283732392;
  s.epochs = 10;
  s.interruptions = 4;
  s.retries = 5;
  s.abandoned = 6;
  s.shed = 7;
  s.fallbacks = 8;
  s.policyFailures = 9;
  s.policyTimeouts = 11;
  s.asyncEpochs = 12;
  s.validatorRejections = 13;
  s.budgetShockEpochs = 14;
  s.noMachineEpochs = 15;
  s.machineDepartures = 16;
  s.batteryExhaustions = 17;
  s.batteryCappedEpochs = 18;
  s.shardedEpochs = 19;
  s.shardPriceIterations = 20;
  s.shardTopUpCells = 21;
  s.shardTopUpEnergy = 1.25;
  s.shardPriceDivergences = 22;
  s.incidents = {{3, sim::IncidentKind::kBudgetShock, 0.3, 0},
                 {4, sim::IncidentKind::kPolicyTimeout, 1.0 / 16.0, 1}};
  s.profileCacheHits = 23;
  s.profileCacheMisses = 24;
  s.profileCacheInvalidations = 25;
  s.profileCacheShards = 27;
  s.lpPivots = 28;
  s.lpRefactorizations = 29;
  s.lpWarmStartsUsed = 30;
  s.lpWarmStartsRepaired = 31;
  s.lpWarmStartsRejected = 32;
  return s;
}

double nextUp(double x) {
  return std::nextafter(x, std::numeric_limits<double>::infinity());
}

using Perturb = void (*)(sim::ServingStats&);

TEST(ExpectSameServing, FlagsEachFieldOnItsOwn) {
  // Each entry moves one field by one count or one ulp — inside
  // EXPECT_DOUBLE_EQ's 4-ulp tolerance — and must fail the expectation on
  // that field and no other.
  using S = sim::ServingStats;
  const std::vector<std::pair<std::string, Perturb>> fields = {
      {"requests", [](S& s) { ++s.requests; }},
      {"served", [](S& s) { ++s.served; }},
      {"deadlineMisses", [](S& s) { ++s.deadlineMisses; }},
      {"missPenalty", [](S& s) { s.missPenalty = nextUp(s.missPenalty); }},
      {"meanAccuracy", [](S& s) { s.meanAccuracy = nextUp(s.meanAccuracy); }},
      {"totalEnergy", [](S& s) { s.totalEnergy = nextUp(s.totalEnergy); }},
      {"meanLatency", [](S& s) { s.meanLatency = nextUp(s.meanLatency); }},
      {"epochs", [](S& s) { ++s.epochs; }},
      {"interruptions", [](S& s) { ++s.interruptions; }},
      {"retries", [](S& s) { ++s.retries; }},
      {"abandoned", [](S& s) { ++s.abandoned; }},
      {"shed", [](S& s) { ++s.shed; }},
      {"fallbacks", [](S& s) { ++s.fallbacks; }},
      {"policyFailures", [](S& s) { ++s.policyFailures; }},
      {"policyTimeouts", [](S& s) { ++s.policyTimeouts; }},
      {"asyncEpochs", [](S& s) { ++s.asyncEpochs; }},
      {"validatorRejections", [](S& s) { ++s.validatorRejections; }},
      {"budgetShockEpochs", [](S& s) { ++s.budgetShockEpochs; }},
      {"noMachineEpochs", [](S& s) { ++s.noMachineEpochs; }},
      {"machineDepartures", [](S& s) { ++s.machineDepartures; }},
      {"batteryExhaustions", [](S& s) { ++s.batteryExhaustions; }},
      {"batteryCappedEpochs", [](S& s) { ++s.batteryCappedEpochs; }},
      {"shardedEpochs", [](S& s) { ++s.shardedEpochs; }},
      {"shardPriceIterations", [](S& s) { ++s.shardPriceIterations; }},
      {"shardTopUpCells", [](S& s) { ++s.shardTopUpCells; }},
      {"shardTopUpEnergy",
       [](S& s) { s.shardTopUpEnergy = nextUp(s.shardTopUpEnergy); }},
      {"shardPriceDivergences", [](S& s) { ++s.shardPriceDivergences; }},
      {"incidents", [](S& s) { ++s.incidents[0].epoch; }},
      {"incidents",
       [](S& s) { s.incidents[0].kind = sim::IncidentKind::kAdmissionShed; }},
      {"incidents", [](S& s) { s.incidents[1].value = nextUp(0.0625); }},
      {"incidents", [](S& s) { ++s.incidents[1].depth; }},
      {"incidents", [](S& s) { s.incidents.pop_back(); }},
      {"profileCacheHits", [](S& s) { ++s.profileCacheHits; }},
      {"profileCacheMisses", [](S& s) { ++s.profileCacheMisses; }},
      {"profileCacheInvalidations",
       [](S& s) { ++s.profileCacheInvalidations; }},
      {"profileCacheShards", [](S& s) { ++s.profileCacheShards; }},
      {"lpPivots", [](S& s) { ++s.lpPivots; }},
      {"lpRefactorizations", [](S& s) { ++s.lpRefactorizations; }},
      {"lpWarmStartsUsed", [](S& s) { ++s.lpWarmStartsUsed; }},
      {"lpWarmStartsRepaired", [](S& s) { ++s.lpWarmStartsRepaired; }},
      {"lpWarmStartsRejected", [](S& s) { ++s.lpWarmStartsRejected; }},
  };
  const sim::ServingStats a = populated();
  for (const auto& [field, perturb] : fields) {
    SCOPED_TRACE(field);
    sim::ServingStats b = a;
    perturb(b);
    EXPECT_NONFATAL_FAILURE(expectSameServing(a, b), "b." + field + "\n");
  }
}

}  // namespace
}  // namespace dsct
