// micro_lp_core: the sparse revised simplex, cold and warm-started.
//
// Sweeps the fractional DSCT LP over batch sizes (m = 4 machines; LP
// columns = n·m structurals + n accuracy variables) and times a cold solve
// of each model. The warm section replays a perturbed-budget epoch from the
// previous optimal basis and reports the pivot work the warm start
// eliminates (the CSV splits out phase-1 pivots; for the DSCT LP family the
// cold all-logical start is already feasible, so phase 1 is empty and the
// saving is all phase 2).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "mipmodel/dsct_lp.h"
#include "solver/model.h"
#include "solver/simplex.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace {

dsct::Instance benchInstance(int n, int m) {
  dsct::ScenarioSpec spec;
  spec.numTasks = n;
  spec.numMachines = m;
  spec.rho = 0.35;
  spec.beta = 0.5;
  return dsct::makeScenario(spec, 0.1, 1.0, 42);
}

struct EngineRun {
  double seconds = 0.0;
  dsct::lp::LpResult result;
};

EngineRun timedSolve(const dsct::lp::Model& model,
                     const dsct::lp::LpBasis* warm = nullptr) {
  dsct::lp::LpOptions options;
  options.warmBasis = warm;
  dsct::Stopwatch watch;
  EngineRun run;
  run.result = dsct::lp::solveLp(model, options);
  run.seconds = watch.elapsedSeconds();
  return run;
}

}  // namespace

int main() {
  using namespace dsct;
  bench::printHeader(
      "micro_lp_core — cold vs warm sparse LP solves",
      "LP engine study (DESIGN.md §17); no direct paper figure");

  const int m = 4;
  std::vector<int> taskCounts = {10, 25, 50, 125, 250};
  if (bench::fullScale()) taskCounts = {10, 25, 50, 125, 250, 500};

  Table table({"tasks", "cols", "rows", "sparse (s)", "warm (s)",
               "pivots cold", "pivots warm"});
  CsvWriter csv("micro_lp_core.csv",
                {"tasks", "cols", "rows", "sparse_seconds", "warm_seconds",
                 "phase1_pivots_cold", "phase1_pivots_warm", "pivots_cold",
                 "pivots_warm", "warm_used"});
  Json jsonRows = Json::array();

  for (const int n : taskCounts) {
    const Instance inst = benchInstance(n, m);
    const DsctLp lp = buildFractionalLp(inst);

    const EngineRun sparse = timedSolve(lp.model);

    // Warm replay: the same batch next epoch with a 15% tighter budget —
    // pure RHS drift, re-entered from this epoch's optimal basis.
    const Instance drifted =
        Instance(inst.tasks(), inst.machines(), inst.energyBudget() * 0.85);
    const DsctLp driftedLp = buildFractionalLp(drifted);
    const EngineRun cold = timedSolve(driftedLp.model);
    const EngineRun warm = timedSolve(driftedLp.model, &sparse.result.basis);

    table.addRow(std::vector<double>{
        static_cast<double>(n),
        static_cast<double>(lp.model.numVariables()),
        static_cast<double>(lp.model.numConstraints()), sparse.seconds,
        warm.seconds, static_cast<double>(cold.result.counters.pivots),
        static_cast<double>(warm.result.counters.pivots)});
    csv.addRow(std::vector<double>{
        static_cast<double>(n),
        static_cast<double>(lp.model.numVariables()),
        static_cast<double>(lp.model.numConstraints()), sparse.seconds,
        warm.seconds,
        static_cast<double>(cold.result.counters.phase1Pivots),
        static_cast<double>(warm.result.counters.phase1Pivots),
        static_cast<double>(cold.result.counters.pivots),
        static_cast<double>(warm.result.counters.pivots),
        static_cast<double>(warm.result.counters.warmStartsUsed)});
    jsonRows.push(Json::object()
                      .set("tasks", n)
                      .set("cols", lp.model.numVariables())
                      .set("rows", lp.model.numConstraints())
                      .set("sparse_seconds", sparse.seconds)
                      .set("warm_seconds", warm.seconds)
                      .set("phase1_pivots_cold",
                           static_cast<double>(cold.result.counters.phase1Pivots))
                      .set("phase1_pivots_warm",
                           static_cast<double>(warm.result.counters.phase1Pivots))
                      .set("pivots_cold",
                           static_cast<double>(cold.result.counters.pivots))
                      .set("pivots_warm",
                           static_cast<double>(warm.result.counters.pivots))
                      .set("warm_used",
                           static_cast<double>(
                               warm.result.counters.warmStartsUsed)));
  }
  table.print(std::cout);
  const Json report = Json::object()
                          .set("bench", "micro_lp_core")
                          .set("mode", bench::fullScale() ? "full" : "quick")
                          .set("machines", m)
                          .set("rows", std::move(jsonRows));
  if (!Json::writeFile("BENCH_micro_lp_core.json", report)) {
    std::cerr << "failed to write BENCH_micro_lp_core.json\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_micro_lp_core.json\n";
  std::cout << "\nmessage: re-entering from the previous epoch's basis"
               " removes the pivot climb on RHS-only drift.\n";
  return 0;
}
