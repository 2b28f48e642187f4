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
#include "util/timer.h"
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

  // --- Slack-engine ablation -----------------------------------------------
  // The incremental SlackEngine vs forced scratch scans, at the sizes where
  // the O(n) per-candidate scan dominates refine time. Both runs start from
  // the same naive solution and produce bit-identical schedules (enforced by
  // tests/sched_slack_cache_test.cpp); only the wall time and the cache
  // counters differ.
  bench::printHeader("Ablation — incremental slack engine vs scratch scans",
                     "RefineProfile deadline-slack cache (sched/slack_engine)");
  const std::vector<int> slackSizes =
      bench::fullScale() ? std::vector<int>{500, 1000, 2000}
                         : std::vector<int>{500, 800};
  Table slackTable({"n", "scratch s", "incremental s", "speedup",
                    "slack queries", "slack hits", "rebuilds", "transfers"});
  CsvWriter slackCsv("ablation_refine_slack.csv",
                     {"n", "scratch_seconds", "incremental_seconds", "speedup",
                      "slack_queries", "slack_hits", "slack_rebuilds",
                      "transfers"});
  for (int nn : slackSizes) {
    Rng rng(deriveSeed(5150, static_cast<std::uint64_t>(nn)));
    std::vector<Machine> machines{Machine{2.0, 80e-3, "m1"},
                                  Machine{5.0, 70e-3, "m2"},
                                  Machine{3.0, 60e-3, "m3"},
                                  Machine{4.0, 90e-3, "m4"}};
    const auto thetas =
        makeThetasEarliestHighEfficient(nn, 0.3, 4.0, 4.9, 0.1, 1.0, rng);
    ScenarioSpec spec;
    spec.numTasks = nn;
    spec.numMachines = static_cast<int>(machines.size());
    spec.rho = 0.01;
    spec.beta = 0.2;
    const Instance inst = buildInstance(std::move(machines), thetas, spec, rng);
    const NaiveSolution base = computeNaiveSolution(inst);

    RefineOptions scratchOpt;
    scratchOpt.incrementalSlack = false;
    FractionalSchedule scratchSched = base.schedule;
    Stopwatch scratchWatch;
    refineProfile(inst, scratchSched, scratchOpt);
    const double scratchSeconds = scratchWatch.elapsedSeconds();

    FractionalSchedule incSched = base.schedule;
    Stopwatch incWatch;
    const RefineStats inc = refineProfile(inst, incSched);
    const double incSeconds = incWatch.elapsedSeconds();

    slackTable.addRow(std::vector<double>{
        static_cast<double>(nn), scratchSeconds, incSeconds,
        incSeconds > 0.0 ? scratchSeconds / incSeconds : 0.0,
        static_cast<double>(inc.slack.queries),
        static_cast<double>(inc.slack.hits),
        static_cast<double>(inc.slack.rebuilds),
        static_cast<double>(inc.transfers)});
    slackCsv.addRow(std::vector<double>{
        static_cast<double>(nn), scratchSeconds, incSeconds,
        incSeconds > 0.0 ? scratchSeconds / incSeconds : 0.0,
        static_cast<double>(inc.slack.queries),
        static_cast<double>(inc.slack.hits),
        static_cast<double>(inc.slack.rebuilds),
        static_cast<double>(inc.transfers)});
  }
  slackTable.print(std::cout);
  std::cout << "\ntakeaway: with the (task, machine) memo + per-machine "
               "version invalidation, a transfer re-scans only the two "
               "touched machine columns instead of every candidate pair.\n";
  return 0;
}
