// Ablation: how much accuracy does RefineProfile (Algorithm 3) add on top
// of the naive energy profile (Algorithm 2)? This isolates the paper's key
// design choice — the naive profile is *not* always optimal (Section 4.2).
#include <iostream>

#include "bench/bench_common.h"
#include "experiments/runner.h"
#include "sched/naive_solution.h"
#include "sched/refine_profile.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/generator.h"

int main() {
  using namespace dsct;
  bench::printHeader("Ablation — naive profile vs refined profile",
                     "Section 4.2 design choice (Algorithm 3)");

  const int n = bench::fullScale() ? 100 : 50;
  const int reps = bench::fullScale() ? 30 : 10;
  const std::vector<double> betas{0.1, 0.2, 0.3, 0.4, 0.6, 0.8};

  ExperimentRunner runner;
  Table table({"beta", "naive total acc", "refined total acc", "gain",
               "transfers"});
  CsvWriter csv("ablation_refine.csv",
                {"beta", "naive_accuracy", "refined_accuracy", "gain",
                 "transfers"});
  for (double beta : betas) {
    const auto stats = runner.replicateMulti(reps, 4, [&](int rep) {
      Rng rng(deriveSeed(1234, static_cast<std::uint64_t>(rep) * 97u +
                                   static_cast<std::uint64_t>(beta * 1000)));
      std::vector<Machine> machines{Machine{2.0, 80e-3, "m1"},
                                    Machine{5.0, 70e-3, "m2"}};
      const auto thetas =
          makeThetasEarliestHighEfficient(n, 0.3, 4.0, 4.9, 0.1, 1.0, rng);
      ScenarioSpec spec;
      spec.numTasks = n;
      spec.numMachines = 2;
      spec.rho = 0.01;
      spec.beta = beta;
      const Instance inst = buildInstance(std::move(machines), thetas, spec, rng);
      NaiveSolution naive = computeNaiveSolution(inst);
      const double naiveAcc = naive.schedule.totalAccuracy(inst);
      const RefineStats rs = refineProfile(inst, naive.schedule);
      const double refinedAcc = naive.schedule.totalAccuracy(inst);
      return std::vector<double>{naiveAcc, refinedAcc, refinedAcc - naiveAcc,
                                 static_cast<double>(rs.transfers)};
    });
    table.addRow(std::vector<double>{beta, stats[0].mean(), stats[1].mean(),
                                     stats[2].mean(), stats[3].mean()});
    csv.addRow(std::vector<double>{beta, stats[0].mean(), stats[1].mean(),
                                   stats[2].mean(), stats[3].mean()});
  }
  table.print(std::cout);
  std::cout << "\ntakeaway: the refinement step recovers the accuracy the "
               "naive profile leaves on the table when early tasks are "
               "deadline-constrained on the efficient machine.\n";
  return 0;
}
