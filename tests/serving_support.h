// Exact comparison of two serving runs, shared by the serving suites.
#pragma once

#include <gtest/gtest.h>

#include "sim/serving.h"

namespace dsct::testing {

/// Every ServingStats field of `a` and `b` must match exactly — doubles
/// bit for bit, the incident log entry for entry. An A/B test zeroes, in
/// both runs, only the fields its switch is meant to move (the LP counters
/// for warm starts on vs off).
inline void expectSameServing(const sim::ServingStats& a,
                              const sim::ServingStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
  EXPECT_EQ(a.missPenalty, b.missPenalty);
  EXPECT_EQ(a.meanAccuracy, b.meanAccuracy);
  EXPECT_EQ(a.totalEnergy, b.totalEnergy);
  EXPECT_EQ(a.meanLatency, b.meanLatency);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.interruptions, b.interruptions);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.policyFailures, b.policyFailures);
  EXPECT_EQ(a.policyTimeouts, b.policyTimeouts);
  EXPECT_EQ(a.asyncEpochs, b.asyncEpochs);
  EXPECT_EQ(a.validatorRejections, b.validatorRejections);
  EXPECT_EQ(a.budgetShockEpochs, b.budgetShockEpochs);
  EXPECT_EQ(a.noMachineEpochs, b.noMachineEpochs);
  EXPECT_EQ(a.machineDepartures, b.machineDepartures);
  EXPECT_EQ(a.batteryExhaustions, b.batteryExhaustions);
  EXPECT_EQ(a.batteryCappedEpochs, b.batteryCappedEpochs);
  EXPECT_EQ(a.shardedEpochs, b.shardedEpochs);
  EXPECT_EQ(a.shardPriceIterations, b.shardPriceIterations);
  EXPECT_EQ(a.shardTopUpCells, b.shardTopUpCells);
  EXPECT_EQ(a.shardTopUpEnergy, b.shardTopUpEnergy);
  EXPECT_EQ(a.shardPriceDivergences, b.shardPriceDivergences);
  EXPECT_EQ(a.incidents, b.incidents);
  EXPECT_EQ(a.profileCacheHits, b.profileCacheHits);
  EXPECT_EQ(a.profileCacheMisses, b.profileCacheMisses);
  EXPECT_EQ(a.profileCacheInvalidations, b.profileCacheInvalidations);
  EXPECT_EQ(a.profileCacheShards, b.profileCacheShards);
  EXPECT_EQ(a.lpPivots, b.lpPivots);
  EXPECT_EQ(a.lpRefactorizations, b.lpRefactorizations);
  EXPECT_EQ(a.lpWarmStartsUsed, b.lpWarmStartsUsed);
  EXPECT_EQ(a.lpWarmStartsRepaired, b.lpWarmStartsRepaired);
  EXPECT_EQ(a.lpWarmStartsRejected, b.lpWarmStartsRejected);
}

}  // namespace dsct::testing
