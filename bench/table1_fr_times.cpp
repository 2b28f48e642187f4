// Table 1: execution time of DSCT-EA-FR-OPT vs a general LP solver on the
// fractional relaxation (paper: 1.05 s vs 1.11 s at n=100 up to 26.2 s vs
// 38.07 s at n=500, m=5, with MOSEK).
//
// Substitution note (DESIGN.md §3): our LP baseline is the library's dense
// two-phase simplex instead of MOSEK; sizes beyond its comfortable range
// are reported as time-limit hits. The qualitative claim — the dedicated
// combinatorial algorithm beats a general-purpose LP solver, increasingly
// so with n — is what this table reproduces.
#include <iostream>

#include "bench/bench_common.h"
#include "experiments/runner.h"
#include "experiments/scenarios.h"
#include "util/csv.h"
#include "util/table.h"

int main() {
  using namespace dsct;
  bench::printHeader("Table 1 — DSCT-EA-FR-OPT vs LP solver runtime",
                     "paper Table 1 (m=5)");

  Table1Config config;
  if (bench::fullScale()) {
    config.taskCounts = {100, 200, 300, 400, 500};
    config.replications = 2;
    config.lpTimeLimit = 120.0;
  } else {
    config.taskCounts = {25, 50, 100};
    config.replications = 2;
    config.lpTimeLimit = 60.0;
  }

  ExperimentRunner runner;
  const auto rows = runTable1(config, runner);

  Table table({"n", "FR-Opt (s)", "LP simplex (s)", "LP timeouts",
               "|obj diff|", "speedup", "evals", "master LPs", "lp pivots"});
  CsvWriter csv("table1_fr_times.csv",
                {"n", "fr_opt_seconds", "lp_seconds", "lp_timeouts",
                 "objective_diff", "fr_evaluations", "fr_master_lps",
                 "lp_pivots", "lp_refactorizations"});
  for (const Table1Row& row : rows) {
    const double diff =
        row.objectiveDiff.empty() ? -1.0 : row.objectiveDiff.max();
    table.addRow(std::vector<double>{
        static_cast<double>(row.numTasks), row.frOptSeconds.mean(),
        row.lpSeconds.mean(), static_cast<double>(row.lpTimeouts), diff,
        row.lpSeconds.mean() / row.frOptSeconds.mean(),
        row.frEvaluations.mean(), row.frMasterLps.mean(),
        row.lpPivots.mean()});
    csv.addRow(std::vector<double>{
        static_cast<double>(row.numTasks), row.frOptSeconds.mean(),
        row.lpSeconds.mean(), static_cast<double>(row.lpTimeouts), diff,
        row.frEvaluations.mean(), row.frMasterLps.mean(),
        row.lpPivots.mean(), row.lpRefactorizations.mean()});
  }
  table.print(std::cout);
  std::cout << "\npaper's message: the dedicated algorithm is faster at every"
               " size and the advantage grows with n.\n";
  return 0;
}
