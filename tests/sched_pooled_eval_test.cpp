// Differential harness for pooled profile evaluation (the bit-identity
// contract): the same evaluateBatch run serially and on an oversubscribed
// ThreadPool must return bitwise-equal values and leave the same memo state.
// The pools are larger than most hosts' core counts, so the workers
// interleave arbitrarily; the tsan preset runs this suite. The FR-OPT-level
// differential is FrOpt.ParallelMatchesSerialBitwise.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "sched/profile_evaluator.h"
#include "tests/test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dsct {
namespace {

TEST(PooledEvaluation, EvaluateBatchPooledMatchesSerialOnDuplicates) {
  // Evaluator-level check, away from FR-OPT's control flow: a batch with
  // deliberate exact duplicates, evaluated serially and on 16 workers, must
  // return bitwise-equal vectors and leave the same memo behind — the same
  // work counters, and a second pass that every entry answers from the memo
  // with the first pass's values.
  const Instance inst = testing::goldenMidSizeInstance();
  ThreadPool pool(16);
  Rng rng(313);
  std::vector<EnergyProfile> profiles;
  profiles.reserve(160);
  for (int i = 0; i < 160; ++i) {
    if (i >= 3 && i % 3 == 0) {
      profiles.push_back(profiles[static_cast<std::size_t>(i - 3)]);
    } else {
      profiles.push_back(
          EnergyProfile{rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)});
    }
  }

  ProfileEvaluator serialEval(inst);
  ProfileEvaluator pooledEval(inst);
  const std::vector<double> serial = serialEval.evaluateBatch(profiles, nullptr);
  const std::vector<double> pooled = pooledEval.evaluateBatch(profiles, &pool);
  EXPECT_EQ(serial, pooled);
  const EvaluatorCounters sc = serialEval.counters();
  const EvaluatorCounters pc = pooledEval.counters();
  EXPECT_EQ(sc.evaluations, pc.evaluations);
  EXPECT_EQ(sc.cacheHits, pc.cacheHits);

  EXPECT_EQ(serialEval.evaluateBatch(profiles, nullptr), serial);
  EXPECT_EQ(pooledEval.evaluateBatch(profiles, &pool), pooled);
  const auto n = static_cast<long long>(profiles.size());
  EXPECT_EQ(serialEval.counters().evaluations, sc.evaluations);
  EXPECT_EQ(serialEval.counters().cacheHits, sc.cacheHits + n);
  EXPECT_EQ(pooledEval.counters().evaluations, pc.evaluations);
  EXPECT_EQ(pooledEval.counters().cacheHits, pc.cacheHits + n);
}

TEST(PooledEvaluation, OneUlpApartProfilesAreEachComputed) {
  // Two profiles one ulp apart share a quantised memo key. In one batch the
  // memo insert of the first is deferred past the second's lookup, so both
  // are computed, each equal to its own fresh evaluation, pooled or not.
  const Instance inst = testing::tinyInstance(50.0);
  const EnergyProfile p1{0.7, 0.4};
  EnergyProfile p2 = p1;
  p2[0] = std::nextafter(p2[0], 1.0);
  const std::vector<EnergyProfile> profiles{p1, p2};

  ProfileEvaluator fresh(inst);
  const std::vector<double> reference{fresh.evaluate(p1), fresh.evaluate(p2)};

  ThreadPool pool(2);
  for (ThreadPool* mode : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(mode == nullptr ? "serial" : "pooled");
    ProfileEvaluator evaluator(inst);
    EXPECT_EQ(evaluator.evaluateBatch(profiles, mode), reference);
    EXPECT_EQ(evaluator.counters().evaluations, 2);
    EXPECT_EQ(evaluator.counters().cacheHits, 0);
  }
}

}  // namespace
}  // namespace dsct
