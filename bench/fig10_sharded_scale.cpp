// fig10_sharded_scale: the shard coordinator at scale — budget-partitioned
// cells coordinated by the Lagrangian energy-price loop (DESIGN.md §18).
//
// Sweeps task count n and cell count K over the paper's synthetic scenario
// generator and reports, per point: sharded wall time vs the unsharded
// solve, the outer price loop's iteration count (target: <= 8 demand
// evaluations to land within 1% of the budget), and the objective
// (total accuracy) gap vs the unsharded solve — the cost of cutting the
// budget coupling. The unsharded reference is only run at n <= 10^4; the
// full-scale sweep pushes the sharded path to n ~ 10^5 where a single-cell
// solve is no longer a sensible baseline. K = 1 is pinned bit-identical to
// the raw solver on every row that runs it.
//
// Output: paper-style table on stdout, fig10_sharded_scale.csv, and
// BENCH_shard.json for machine consumption.
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "shard/coordinator.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace {

dsct::Instance benchInstance(int n, int m) {
  dsct::ScenarioSpec spec;
  spec.numTasks = n;
  spec.numMachines = m;
  spec.rho = 0.35;
  // At β = 0.5 the horizon-power budget is generous and the price loop
  // settles at λ = 0 without iterating. β = 0.01 is tighter, but in quick
  // mode it binds only for the finest partition. The CSV's budget_used is
  // 67% (n = 200) and 80% (n = 1000) of the budget at K = 1, where the solve
  // already reaches Σ a_max; 81% at K = 2 (n = 200); 96% at K = 4
  // (n = 1000). Only K = 4 (n = 200) and K = 8 (n = 1000) spend the whole
  // budget, end at λ > 0 and iterate the bisection (7 and 5 iterations).
  spec.beta = 0.01;
  return dsct::makeScenario(spec, 0.1, 1.0, 42);
}

}  // namespace

int main() {
  using namespace dsct;
  bench::printHeader(
      "fig10 — sharded solves under one Lagrangian energy price",
      "shard coordinator scale-out (DESIGN.md §18); no direct paper figure");

  struct SweepPoint {
    int tasks;
    int machines;
    std::vector<int> cellCounts;
  };
  std::vector<SweepPoint> sweep;
  int gapLimit = 10000;  ///< unsharded reference only below this n
  if (bench::fullScale()) {
    sweep = {{2000, 32, {1, 4, 8}},
             {10000, 64, {1, 8, 16}},
             {100000, 64, {8, 16}}};
  } else {
    sweep = {{200, 16, {1, 2, 4}}, {1000, 32, {1, 4, 8}}};
  }

  const Solver& inner = SolverRegistry::instance().resolve("approx");
  ThreadPool pool(0);  // 0 = hardware concurrency

  Table table({"n", "m", "K", "time (s)", "unsharded (s)", "speedup",
               "price iters", "converged", "accuracy", "gap %", "top-ups"});
  CsvWriter csv("fig10_sharded_scale.csv",
                {"tasks", "machines", "cells", "seconds", "unsharded_seconds",
                 "speedup", "price_iterations", "converged", "final_price",
                 "accuracy", "unsharded_accuracy", "gap_percent",
                 "top_up_cells", "top_up_energy", "budget", "budget_used",
                 "k1_identical"});
  Json rows = Json::array();
  bool k1Identical = true;

  for (const SweepPoint& point : sweep) {
    const Instance inst = benchInstance(point.tasks, point.machines);

    // Unsharded reference: approx and FR-OPT fan nothing out, so it runs on
    // one thread while the cells below share the pool.
    double unshardedSeconds = -1.0;
    double unshardedAccuracy = -1.0;
    if (point.tasks <= gapLimit) {
      Stopwatch watch;
      const SolveOutcome outcome = inner.solve(inst, SolveContext{});
      unshardedSeconds = watch.elapsedSeconds();
      unshardedAccuracy = outcome.totalAccuracy;
    }

    for (const int k : point.cellCounts) {
      shard::ShardOptions options;
      options.cells = k;
      options.seed = 7;
      shard::ShardCoordinator coordinator(inner, options);
      SolveContext context;
      context.pool = &pool;
      Stopwatch watch;
      const SolveOutcome outcome = coordinator.solve(inst, context);
      const double seconds = watch.elapsedSeconds();
      const shard::ShardStats& stats = coordinator.lastStats();

      // K = 1 must be bit-identical to the raw solver.
      int identical = -1;
      if (k == 1 && unshardedAccuracy >= 0.0) {
        identical = outcome.totalAccuracy == unshardedAccuracy &&
                            outcome.energy ==
                                inner.solve(inst, SolveContext{}).energy
                        ? 1
                        : 0;
        if (identical == 0) k1Identical = false;
      }

      const double gapPercent =
          unshardedAccuracy > 0.0
              ? 100.0 * (unshardedAccuracy - outcome.totalAccuracy) /
                    unshardedAccuracy
              : -1.0;
      const double speedup =
          unshardedSeconds > 0.0 && seconds > 0.0 ? unshardedSeconds / seconds
                                                  : 0.0;
      table.addRow(std::vector<double>{
          static_cast<double>(point.tasks),
          static_cast<double>(point.machines), static_cast<double>(k),
          seconds, unshardedSeconds, speedup,
          static_cast<double>(stats.priceIterations),
          stats.converged ? 1.0 : 0.0, outcome.totalAccuracy, gapPercent,
          static_cast<double>(stats.topUpCells)});
      csv.addRow(std::vector<double>{
          static_cast<double>(point.tasks),
          static_cast<double>(point.machines), static_cast<double>(k),
          seconds, unshardedSeconds, speedup,
          static_cast<double>(stats.priceIterations),
          stats.converged ? 1.0 : 0.0, stats.finalPrice,
          outcome.totalAccuracy, unshardedAccuracy, gapPercent,
          static_cast<double>(stats.topUpCells), stats.topUpEnergy,
          inst.energyBudget(), stats.budgetUsed,
          static_cast<double>(identical)});
      rows.push(Json::object()
                    .set("tasks", point.tasks)
                    .set("machines", point.machines)
                    .set("cells", k)
                    .set("seconds", seconds)
                    .set("unsharded_seconds", unshardedSeconds)
                    .set("speedup", speedup)
                    .set("price_iterations", stats.priceIterations)
                    .set("converged", stats.converged)
                    .set("final_price", stats.finalPrice)
                    .set("accuracy", outcome.totalAccuracy)
                    .set("unsharded_accuracy", unshardedAccuracy)
                    .set("gap_percent", gapPercent)
                    .set("top_up_cells", stats.topUpCells)
                    .set("top_up_energy", stats.topUpEnergy)
                    .set("budget", inst.energyBudget())
                    .set("budget_used", stats.budgetUsed));
    }
  }
  table.print(std::cout);

  Json report = Json::object()
                    .set("bench", "fig10_sharded_scale")
                    .set("mode", bench::fullScale() ? "full" : "quick")
                    .set("solver", "approx")
                    .set("k1_identical", k1Identical)
                    .set("rows", std::move(rows));
  if (!Json::writeFile("BENCH_shard.json", report)) {
    std::cerr << "failed to write BENCH_shard.json\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_shard.json (k1_identical="
            << (k1Identical ? "true" : "false") << ")\n"
            << "\nmessage: the budget is the only coupling — pricing it lets"
               " K cells solve independently at their demand shares, the"
               " breakpoint-snapping bisection needs only a handful of demand"
               " evaluations, and the top-up pass hands structural step-gap"
               " slack back to the budget-bound cells.\n";
  return k1Identical ? 0 : 1;
}
