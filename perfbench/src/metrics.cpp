#include "metrics.h"

#include <map>
#include <string>

#include "spans.h"

namespace perfbench {

const std::vector<MetricDef>& endToEndMetrics() {
  static const std::vector<MetricDef> defs{
      {"setup_s", "s", "lower"},
      {"run_s", "s", "lower"},
      {"tasks_per_s", "1/s", "higher"},
      {"mean_accuracy", "ratio", "higher"},
      {"on_time_rate", "ratio", "higher"},
      {"opt_ratio", "ratio", "higher"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& perLayerMetrics() {
  static const std::vector<MetricDef> defs{
      {"workload.parse_s", "s", "lower"},
      {"workload.materialize_s", "s", "lower"},
      {"workload.requests", "count", "higher"},
      {"core.solves", "count", "lower"},
      {"core.solve_p50_s", "s", "lower"},
      {"core.solve_tail_s", "s", "lower"},
      {"core.solve_tail_pct", "%", "higher"},
      {"core.solve_busy_s", "s", "lower"},
      {"sim.self_s", "s", "lower"},
      {"sim.epochs", "count", "lower"},
      {"sim.served", "count", "higher"},
      {"sim.shed", "count", "lower"},
      {"sim.fallbacks", "count", "lower"},
      {"sim.execute_s", "s", "lower"},
      {"sched.refine_s", "s", "lower"},
      {"sched.pair_s", "s", "lower"},
      {"sched.direction_s", "s", "lower"},
      {"sched.expand_s", "s", "lower"},
      {"sched.evaluations", "count", "lower"},
      {"sched.outer_rounds", "count", "lower"},
      {"sched.direction_lp_solves", "count", "lower"},
      {"sched.slack_hit_ratio", "ratio", "higher"},
      {"sched.slack_queries", "count", "lower"},
      {"sched.cross_hit_ratio", "ratio", "higher"},
      {"sched.cross_lookups", "count", "lower"},
      {"sched.validate_s", "s", "lower"},
      {"shard.cell_solves", "count", "lower"},
      {"shard.cell_solve_p50_s", "s", "lower"},
      {"shard.cell_solve_max_s", "s", "lower"},
      {"shard.cell_parallelism", "ratio", "higher"},
      {"shard.price_iterations", "count", "lower"},
      {"shard.topup_cells", "count", "lower"},
      {"bench.traced_run_s", "s", "lower"},
      {"bench.trace_overhead_s", "s", "lower"},
  };
  return defs;
}

namespace {

double median(const std::vector<double>& xs) { return percentileOr0(xs, 50.0); }

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// The pass with the shortest measured phase. Passes repeat identical,
/// deterministic work, and machine noise only ever slows a pass down, so the
/// fastest pass is the steadiest estimate of what the work costs.
const PassResult& fastest(const std::vector<PassResult>& passes) {
  const PassResult* best = &passes.front();
  for (const PassResult& pass : passes) {
    if (pass.run.seconds() < best->run.seconds()) best = &pass;
  }
  return *best;
}

/// Seconds the pass spent in its direct calls named `name`.
double callSeconds(const PassResult& pass, const std::string& name) {
  double total = 0.0;
  for (const Span& span : pass.spans) {
    if (span.name == name) total += span.time.seconds();
  }
  return total;
}

/// The per-layer values one traced pass yields from its solve records,
/// direct calls and serving counters.
std::map<std::string, double> passLayers(const PassResult& pass) {
  std::vector<double> durations;
  std::vector<Interval> intervals;
  double totalSeconds = 0.0;
  dsct::FrOptCounters sum;
  for (const SolveRecord& solve : pass.solves) {
    durations.push_back(solve.time.seconds());
    intervals.push_back(solve.time);
    totalSeconds += solve.time.seconds();
    const dsct::FrOptCounters& c = solve.counters;
    sum.evaluations += c.evaluations;
    sum.directionLpSolves += c.directionLpSolves;
    sum.outerRounds += c.outerRounds;
    sum.expandSeconds += c.expandSeconds;
    sum.refineSeconds += c.refineSeconds;
    sum.pairSeconds += c.pairSeconds;
    sum.directionSeconds += c.directionSeconds;
    sum.slackQueries += c.slackQueries;
    sum.slackHits += c.slackHits;
    sum.crossHits += c.crossHits;
    sum.crossMisses += c.crossMisses;
  }
  const auto solves = static_cast<double>(durations.size());
  const double busy = unionSeconds(intervals);
  const double tail = tailPercentile(durations.size());
  const auto lookups = static_cast<double>(sum.crossHits + sum.crossMisses);
  // Under the sharded serving loop the proxied solves are the cell solves.
  const double cells = pass.sharded ? 1.0 : 0.0;
  return {
      {"core.solves", solves},
      {"core.solve_p50_s", percentileOr0(durations, 50.0)},
      {"core.solve_tail_s", percentileOr0(durations, tail)},
      {"core.solve_tail_pct", tail},
      {"core.solve_busy_s", busy},
      {"sim.epochs", static_cast<double>(pass.epochs)},
      {"sim.served", static_cast<double>(pass.served)},
      {"sim.shed", static_cast<double>(pass.shed)},
      {"sim.fallbacks", static_cast<double>(pass.fallbacks)},
      {"sim.execute_s", callSeconds(pass, kExecuteCall)},
      {"sched.refine_s", sum.refineSeconds},
      {"sched.pair_s", sum.pairSeconds},
      {"sched.direction_s", sum.directionSeconds},
      {"sched.expand_s", sum.expandSeconds},
      {"sched.evaluations", static_cast<double>(sum.evaluations)},
      {"sched.outer_rounds", static_cast<double>(sum.outerRounds)},
      {"sched.direction_lp_solves",
       static_cast<double>(sum.directionLpSolves)},
      {"sched.slack_hit_ratio", ratio(static_cast<double>(sum.slackHits),
                                      static_cast<double>(sum.slackQueries))},
      {"sched.slack_queries", static_cast<double>(sum.slackQueries)},
      {"sched.cross_hit_ratio",
       ratio(static_cast<double>(sum.crossHits), lookups)},
      {"sched.cross_lookups", lookups},
      {"sched.validate_s", callSeconds(pass, kValidateCall)},
      {"shard.cell_solves", cells * solves},
      {"shard.cell_solve_p50_s", cells * percentileOr0(durations, 50.0)},
      {"shard.cell_solve_max_s", cells * percentileOr0(durations, 100.0)},
      {"shard.cell_parallelism", cells * ratio(totalSeconds, busy)},
      {"shard.price_iterations", static_cast<double>(pass.priceIterations)},
      {"shard.topup_cells", static_cast<double>(pass.topUpCells)},
  };
}

}  // namespace

std::vector<double> endToEndValues(const RunData& run) {
  std::vector<double> setup;
  for (const SetupTimes& times : run.setups) {
    setup.push_back(times.parse.seconds() + times.materialize.seconds());
  }
  // Every run checks that all passes produce identical outputs, so one pass
  // speaks for all of them.
  const PassResult& pass = fastest(run.untraced);
  const double runS = pass.run.seconds();
  const auto requests = static_cast<double>(pass.requests);
  return {
      median(setup),
      runS,
      requests / runS,
      pass.accuracySum / requests,
      1.0 - static_cast<double>(pass.misses) / requests,
      pass.accuracySum / pass.accuracyBound,
      run.peakRssMb,
  };
}

std::vector<double> perLayerValues(const RunData& run) {
  // Every layer value comes from the fastest traced pass, so the solve and
  // self times add up to its run time.
  const PassResult& pass = fastest(run.traced);
  std::map<std::string, double> values = passLayers(pass);
  std::vector<double> parse;
  std::vector<double> materialize;
  for (const SetupTimes& times : run.setups) {
    parse.push_back(times.parse.seconds());
    materialize.push_back(times.materialize.seconds());
  }
  values["workload.parse_s"] = median(parse);
  values["workload.materialize_s"] = median(materialize);
  values["workload.requests"] = static_cast<double>(pass.requests);
  const double tracedRun = pass.run.seconds();
  values["bench.traced_run_s"] = tracedRun;
  values["bench.trace_overhead_s"] =
      tracedRun - fastest(run.untraced).run.seconds();
  // Everything in the traced run that is not solving: admission, instance
  // build, execution and retirement; sharded, also the partition, price loop
  // and merge; batch, also validation and execution.
  values["sim.self_s"] = tracedRun - values.at("core.solve_busy_s");

  std::vector<double> out;
  for (const MetricDef& def : perLayerMetrics()) {
    out.push_back(values.at(def.name));
  }
  return out;
}

}  // namespace perfbench
