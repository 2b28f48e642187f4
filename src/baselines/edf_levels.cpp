#include "baselines/edf_levels.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "accuracy/levels.h"
#include "util/check.h"

namespace dsct {

BaselineResult solveEdfLevels(const Instance& inst,
                              const EdfLevelsOptions& options) {
  const int n = inst.numTasks();
  const int m = inst.numMachines();
  std::vector<double> load(static_cast<std::size_t>(m), 0.0);
  std::vector<double> machineEnergy(static_cast<std::size_t>(m), 0.0);
  const std::vector<double>* caps = options.machineEnergyCaps;
  DSCT_CHECK_MSG(caps == nullptr || caps->size() == static_cast<std::size_t>(m),
                 "machineEnergyCaps has " << caps->size() << " entries for "
                     << m << " machines");
  double energyUsed = 0.0;

  std::vector<int> machineOf(static_cast<std::size_t>(n), -1);
  std::vector<double> duration(static_cast<std::size_t>(n), 0.0);

  bool cancelled = false;
  for (int j = 0; j < n; ++j) {
    if (stopRequested(options.cancel)) {
      cancelled = true;
      break;  // remaining tasks stay dropped at their floor accuracy
    }
    const Task& task = inst.task(j);
    const std::vector<CompressionLevel> levels =
        levelsForTargets(task.accuracy, options.accuracyTargets);

    // Machines in least-loaded-first order.
    std::vector<int> order(static_cast<std::size_t>(m));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return load[static_cast<std::size_t>(a)] <
             load[static_cast<std::size_t>(b)];
    });

    int chosenMachine = -1;
    double chosenTime = 0.0;
    double chosenAccuracy = -1.0;
    for (int r : order) {
      const Machine& machine = inst.machine(r);
      // Highest level first (levels are sorted by increasing flops).
      for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
        const double time = it->flops / machine.speed;
        const bool meetsDeadline =
            load[static_cast<std::size_t>(r)] + time <= task.deadline + 1e-12;
        const bool meetsBudget =
            energyUsed + time * machine.power() <=
            inst.energyBudget() + 1e-9;
        const bool meetsCap =
            caps == nullptr ||
            machineEnergy[static_cast<std::size_t>(r)] +
                    time * machine.power() <=
                (*caps)[static_cast<std::size_t>(r)] + 1e-9;
        if (!meetsDeadline || !meetsBudget || !meetsCap) continue;
        if (it->accuracy > chosenAccuracy) {
          chosenMachine = r;
          chosenTime = time;
          chosenAccuracy = it->accuracy;
        }
        break;  // lower levels on this machine can only be worse
      }
      // The least-loaded machine that fits the top level is optimal for this
      // greedy; but a more loaded machine may still fit a *higher* level, so
      // keep scanning until the top level has been achieved.
      if (chosenAccuracy >= levels.back().accuracy - 1e-12 &&
          chosenMachine >= 0) {
        break;
      }
    }
    if (chosenMachine < 0) continue;  // dropped
    machineOf[static_cast<std::size_t>(j)] = chosenMachine;
    duration[static_cast<std::size_t>(j)] = chosenTime;
    load[static_cast<std::size_t>(chosenMachine)] += chosenTime;
    const double joules = chosenTime * inst.machine(chosenMachine).power();
    machineEnergy[static_cast<std::size_t>(chosenMachine)] += joules;
    energyUsed += joules;
  }

  BaselineResult result{IntegralSchedule::build(inst, std::move(machineOf),
                                                std::move(duration)),
                        0, 0, 0.0, 0.0};
  result.scheduledTasks = result.schedule.numScheduled();
  result.droppedTasks = n - result.scheduledTasks;
  result.totalAccuracy = result.schedule.totalAccuracy(inst);
  result.energy = result.schedule.energy(inst);
  result.cancelled = cancelled;
  return result;
}

}  // namespace dsct
