// The benchmark's own tests: the span-union and percentile helpers, the
// metric names, and that tracing through the proxy solvers leaves every
// workload's results unchanged.
#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "metrics.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Spans, UnionCountsOverlapsOnce) {
  EXPECT_DOUBLE_EQ(unionSeconds({}), 0.0);
  EXPECT_DOUBLE_EQ(unionSeconds({{0.0, 1.0}, {2.0, 3.0}}), 2.0);
  EXPECT_DOUBLE_EQ(unionSeconds({{0.0, 2.0}, {1.0, 3.0}}), 3.0);
  // Unordered, nested and touching intervals.
  EXPECT_DOUBLE_EQ(unionSeconds({{5.0, 6.0}, {1.0, 3.0}, {0.0, 4.0}}), 5.0);
  EXPECT_DOUBLE_EQ(unionSeconds({{0.0, 1.0}, {1.0, 2.0}}), 2.0);
  // An empty interval adds nothing, even inside a gap.
  EXPECT_DOUBLE_EQ(unionSeconds({{0.0, 1.0}, {1.5, 1.5}, {2.0, 3.0}}), 2.0);
}

TEST(Spans, TailPercentileLeavesTenSamplesAbove) {
  EXPECT_EQ(tailPercentile(0), 50.0);
  EXPECT_EQ(tailPercentile(99), 50.0);
  EXPECT_EQ(tailPercentile(100), 90.0);
  EXPECT_EQ(tailPercentile(199), 90.0);
  EXPECT_EQ(tailPercentile(200), 95.0);
  EXPECT_EQ(tailPercentile(999), 95.0);
  EXPECT_EQ(tailPercentile(1000), 99.0);
  EXPECT_EQ(tailPercentile(9999), 99.0);
  EXPECT_EQ(tailPercentile(10000), 99.9);
  EXPECT_EQ(tailPercentile(100000), 99.99);
  for (const std::size_t n : {100U, 250U, 1000U, 4799U, 10000U}) {
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(i);
    const double cut = percentileOr0(xs, tailPercentile(n));
    std::size_t above = 0;
    for (const double x : xs) above += x > cut ? 1 : 0;
    EXPECT_GE(above, 10U) << n << " samples";
  }
}

TEST(Spans, PercentileInterpolatesOnTheSortedSample) {
  EXPECT_EQ(percentileOr0({}, 50.0), 0.0);
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentileOr0(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentileOr0(xs, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(percentileOr0(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentileOr0(xs, 100.0), 4.0);
}

TEST(Metrics, NamesAndUnitsAreWellFormedAndUnique) {
  const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const std::vector<MetricDef>* defs :
       {&endToEndMetrics(), &perLayerMetrics()}) {
    for (const MetricDef& def : *defs) {
      EXPECT_TRUE(std::regex_match(def.name, name)) << def.name;
      EXPECT_TRUE(std::regex_match(def.unit, unit)) << def.unit;
      const std::string better = def.better;
      EXPECT_TRUE(better == "lower" || better == "higher") << def.name;
      EXPECT_TRUE(seen.insert(def.name).second) << "duplicate " << def.name;
    }
  }
  for (const std::string& workload : workloadNames()) {
    EXPECT_TRUE(std::regex_match(workload, name)) << workload;
  }
}

TEST(Metrics, TracedRunSecondsSplitIntoSolvesAndSelf) {
  RunData run;
  run.setups.push_back({{0.0, 0.1}, {0.1, 0.3}});
  PassResult pass;
  pass.run = {1.0, 3.0};
  pass.requests = 10;
  pass.accuracySum = 5.0;
  pass.accuracyBound = 8.0;
  pass.misses = 2;
  run.untraced.push_back(pass);
  SolveRecord first;
  first.time = {4.0, 4.5};
  SolveRecord second;
  second.time = {4.2, 5.0};
  second.epoch = 1;
  pass.run = {3.5, 6.0};
  pass.solves = {first, second};
  run.traced.push_back(pass);

  const std::vector<double> e2e = endToEndValues(run);
  ASSERT_EQ(e2e.size(), endToEndMetrics().size());
  EXPECT_DOUBLE_EQ(e2e[0], 0.3);        // setup_s
  EXPECT_DOUBLE_EQ(e2e[1], 2.0);        // run_s
  EXPECT_DOUBLE_EQ(e2e[2], 5.0);        // tasks_per_s
  EXPECT_DOUBLE_EQ(e2e[3], 0.5);        // mean_accuracy
  EXPECT_DOUBLE_EQ(e2e[4], 0.8);        // on_time_rate
  EXPECT_DOUBLE_EQ(e2e[5], 5.0 / 8.0);  // opt_ratio

  const std::vector<double> layers = perLayerValues(run);
  ASSERT_EQ(layers.size(), perLayerMetrics().size());
  const auto value = [&](const std::string& metric) {
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (perLayerMetrics()[i].name == metric) return layers[i];
    }
    ADD_FAILURE() << "no metric " << metric;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(value("core.solves"), 2.0);
  EXPECT_DOUBLE_EQ(value("core.solve_busy_s"), 1.0);
  EXPECT_DOUBLE_EQ(value("bench.traced_run_s"), 2.5);
  EXPECT_DOUBLE_EQ(value("sim.self_s"), 1.5);
  EXPECT_DOUBLE_EQ(value("core.solve_busy_s") + value("sim.self_s"),
                   value("bench.traced_run_s"));
  EXPECT_DOUBLE_EQ(value("bench.trace_overhead_s"), 0.5);
  EXPECT_DOUBLE_EQ(value("shard.cell_solves"), 0.0);
}

std::string joined(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) out += item + "; ";
  return out;
}

/// An untraced and a traced pass of a shrunk workload must pass their
/// checks and agree on every output.
void expectTracingInvisible(const std::string& name,
                            const WorkloadScale& scale) {
  SCOPED_TRACE(name);
  const std::unique_ptr<Workload> workload =
      makeWorkload(name, PERFBENCH_REPO_ROOT, scale);
  ASSERT_NE(workload, nullptr);
  workload->setup(workload->defaultSeed());
  const PassResult plain = workload->run(false);
  const PassResult traced = workload->run(true);
  EXPECT_TRUE(plain.failures.empty()) << joined(plain.failures);
  EXPECT_TRUE(traced.failures.empty()) << joined(traced.failures);
  EXPECT_TRUE(plain.solves.empty());
  EXPECT_FALSE(traced.solves.empty());
  EXPECT_EQ(plain.requests, workload->requestsPerPass());
  EXPECT_TRUE(diffOutputs(plain, traced).empty())
      << joined(diffOutputs(plain, traced));
}

TEST(Proxy, InvisibleToServingOnAShortHorizon) {
  expectTracingInvisible("serve-volunteer-long", {60.0, 0});
  expectTracingInvisible("serve-edf3-firehose", {3.0, 0});
}

TEST(Proxy, InvisibleToShardedServing) {
  expectTracingInvisible("serve-sharded-approx", {1.0, 0});
}

TEST(Proxy, InvisibleToBatchSolves) {
  expectTracingInvisible("batch-approx", {0.0, 200});
}

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_EQ(makeWorkload("no-such-workload", PERFBENCH_REPO_ROOT), nullptr);
}

}  // namespace
}  // namespace perfbench
