// Ablation: robustness of DSCT-EA-APPROX to misestimated task efficiencies.
// The scheduler sees accuracy curves built from noisy θ̂ = θ·(1 ± σ); the
// resulting schedule is then evaluated against the true curves. Deadlines
// and energy are unaffected (same durations, same machines), so this
// isolates the accuracy cost of profile misestimation. Each schedule is
// additionally replayed through the cluster simulator to report realized
// deadline misses and energy alongside accuracy.
//
// CSV schema is shared with fig7_fault_tolerance so the robustness sweeps
// compose into one frame:
//   sweep,param,variant,accuracy,deadline_misses,energy_joules,
//   retries,fallbacks,shed
#include <algorithm>
#include <iostream>
#include <vector>

#include "accuracy/fit.h"
#include "bench/bench_common.h"
#include "experiments/runner.h"
#include "sim/cluster.h"
#include "util/cancel.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/generator.h"

namespace {

using namespace dsct;

/// Rebuild the instance with per-task efficiency misestimated by a
/// multiplicative factor in [1−σ, 1+σ].
Instance perturb(const Instance& truth, double sigma, Rng& rng) {
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(truth.numTasks()));
  for (const Task& task : truth.tasks()) {
    const double factor = rng.uniform(1.0 - sigma, 1.0 + sigma);
    const double thetaHat = std::max(1e-3, task.accuracy.theta() * factor);
    tasks.push_back(Task{task.deadline,
                         makePaperAccuracy(task.amin(), task.amax(), thetaHat),
                         task.name});
  }
  return Instance(std::move(tasks), truth.machines(), truth.energyBudget());
}

/// Per-task accuracy, simulated deadline misses, and realized energy of
/// `schedule` executed against `truth`.
std::vector<double> scoreAgainstTruth(const Instance& truth,
                                      const IntegralSchedule& schedule) {
  const double count = static_cast<double>(truth.numTasks());
  const sim::ExecutionResult exec = sim::executeSchedule(truth, schedule);
  return {schedule.totalAccuracy(truth) / count,
          static_cast<double>(exec.deadlineMisses), exec.totalEnergy};
}

}  // namespace

int main() {
  using namespace dsct;
  bench::printHeader("Ablation — robustness to misestimated task efficiency",
                     "sensitivity analysis beyond the paper's evaluation");

  const int n = bench::fullScale() ? 100 : 40;
  const int reps = bench::fullScale() ? 30 : 10;
  const std::vector<double> sigmas{0.0, 0.1, 0.25, 0.5, 0.75};

  ExperimentRunner runner;
  // Generous cooperative-cancellation guard on every solve in the sweep: the
  // token never expires at this scale (the solves take microseconds), so the
  // numbers are untouched, but a pathological instance would stop the bench
  // with a cancelled solve instead of hanging it.
  const CancelToken solveGuard(300.0);
  runner.context().cancel = &solveGuard;
  Table table({"sigma", "true-theta accuracy", "noisy-theta accuracy",
               "degradation %", "noisy misses", "noisy energy J"});
  CsvWriter csv("ablation_robustness.csv",
                {"sweep", "param", "variant", "accuracy", "deadline_misses",
                 "energy_joules", "retries", "fallbacks", "shed"});
  // The truth instance and the oracle's score depend only on the
  // replication, so each is built and solved once, not once per σ.
  ScenarioSpec spec;
  spec.numTasks = n;
  spec.numMachines = 3;
  spec.rho = 0.35;
  spec.beta = 0.4;
  std::vector<Instance> truths;
  for (int rep = 0; rep < reps; ++rep) {
    truths.push_back(makeScenario(spec, 0.1, 2.0, deriveSeed(60601, rep)));
  }
  const std::vector<std::vector<double>> oracles = runner.pool().parallelMap(
      truths.size(), [&](std::size_t rep) {
        return scoreAgainstTruth(
            truths[rep],
            *bench::runSolverByName("approx", truths[rep], runner.context())
                 .schedule);
      });
  for (double sigma : sigmas) {
    // Six metrics: {accuracy, misses, energy} for oracle then noisy.
    const auto stats = runner.replicateMulti(reps, 6, [&](int rep) {
      const Instance& truth = truths[static_cast<std::size_t>(rep)];
      const std::vector<double>& oracle =
          oracles[static_cast<std::size_t>(rep)];
      Rng rng(deriveSeed(60602, static_cast<std::uint64_t>(rep) * 31u +
                                    static_cast<std::uint64_t>(sigma * 100)));
      const Instance estimated = perturb(truth, sigma, rng);

      // Schedule with the estimate, score against the truth: machine
      // assignments and durations carry over verbatim.
      const IntegralSchedule noisySched =
          *bench::runSolverByName("approx", estimated, runner.context())
               .schedule;
      std::vector<int> machineOf;
      std::vector<double> duration;
      for (int j = 0; j < truth.numTasks(); ++j) {
        machineOf.push_back(noisySched.machineOf(j));
        duration.push_back(noisySched.duration(j));
      }
      const IntegralSchedule scored = IntegralSchedule::build(
          truth, std::move(machineOf), std::move(duration));
      const auto noisy = scoreAgainstTruth(truth, scored);
      return std::vector<double>{oracle[0], oracle[1], oracle[2],
                                 noisy[0], noisy[1], noisy[2]};
    });
    const double degradation =
        100.0 * (stats[0].mean() - stats[3].mean()) /
        std::max(1e-12, stats[0].mean());
    table.addRow(std::vector<double>{sigma, stats[0].mean(), stats[3].mean(),
                                     degradation, stats[4].mean(),
                                     stats[5].mean()});
    for (int variant = 0; variant < 2; ++variant) {
      const int base = variant * 3;
      csv.addRow(std::vector<std::string>{
          "theta-noise", std::to_string(sigma),
          variant == 0 ? "oracle" : "noisy",
          std::to_string(stats[static_cast<std::size_t>(base)].mean()),
          std::to_string(stats[static_cast<std::size_t>(base + 1)].mean()),
          std::to_string(stats[static_cast<std::size_t>(base + 2)].mean()),
          "0", "0", "0"});
    }
  }
  table.print(std::cout);
  std::cout << "\ntakeaway: the concave accuracy model makes the schedule "
               "forgiving — even ±50% efficiency misestimation costs only a"
               " few accuracy points, and the replayed schedules stay "
               "deadline-clean because durations never change.\n";
  return 0;
}
