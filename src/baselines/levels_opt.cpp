#include "baselines/levels_opt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "util/check.h"

namespace dsct {

std::vector<LevelMenu> buildLevelMenus(
    const Instance& inst, const std::vector<double>& accuracyTargets,
    const std::vector<double>* machineEnergyCaps) {
  const int n = inst.numTasks();
  const int m = inst.numMachines();
  DSCT_CHECK_MSG(machineEnergyCaps == nullptr ||
                     machineEnergyCaps->size() == static_cast<std::size_t>(m),
                 "machineEnergyCaps has " << machineEnergyCaps->size()
                     << " entries for " << m << " machines");
  std::vector<LevelMenu> menus(static_cast<std::size_t>(n));
  // Tentative loads assume each task runs its largest feasible level; the
  // knapsack below only ever *shrinks* levels, so tasks start no later than
  // assumed here and deadlines stay satisfied. The same argument covers the
  // per-machine energy caps: `reserved` tracks the largest-level energy per
  // machine, and shrinking only releases energy.
  std::vector<double> load(static_cast<std::size_t>(m), 0.0);
  std::vector<double> reserved(static_cast<std::size_t>(m), 0.0);
  const auto capOf = [&](int r) {
    if (machineEnergyCaps == nullptr) {
      return std::numeric_limits<double>::infinity();
    }
    return (*machineEnergyCaps)[static_cast<std::size_t>(r)];
  };

  for (int j = 0; j < n; ++j) {
    const Task& task = inst.task(j);
    const auto levels = levelsForTargets(task.accuracy, accuracyTargets);
    int bestMachine = -1;
    std::size_t bestCount = 0;
    for (int r = 0; r < m; ++r) {
      // Count levels feasible on r given the current load. Levels are
      // ascending in flops, so the feasible ones are a prefix.
      std::size_t feasible = 0;
      for (const CompressionLevel& level : levels) {
        const double time = level.flops / inst.machine(r).speed;
        const double joules = level.flops / inst.machine(r).efficiency;
        if (load[static_cast<std::size_t>(r)] + time <=
                task.deadline + 1e-12 &&
            reserved[static_cast<std::size_t>(r)] + joules <=
                capOf(r) + 1e-12) {
          ++feasible;
        }
      }
      if (feasible > bestCount ||
          (feasible == bestCount && feasible > 0 && bestMachine >= 0 &&
           load[static_cast<std::size_t>(r)] <
               load[static_cast<std::size_t>(bestMachine)])) {
        bestCount = feasible;
        bestMachine = r;
      }
    }
    if (bestMachine < 0 || bestCount == 0) continue;  // dropped by routing
    LevelMenu& menu = menus[static_cast<std::size_t>(j)];
    menu.machine = bestMachine;
    menu.levels.assign(levels.begin(),
                       levels.begin() + static_cast<std::ptrdiff_t>(bestCount));
    // Reserve the largest feasible level's time and energy.
    load[static_cast<std::size_t>(bestMachine)] +=
        menu.levels.back().flops / inst.machine(bestMachine).speed;
    reserved[static_cast<std::size_t>(bestMachine)] +=
        menu.levels.back().flops / inst.machine(bestMachine).efficiency;
  }
  return menus;
}

BaselineResult solveEdfLevelsOpt(const Instance& inst,
                                 const EdfLevelsOptOptions& options) {
  DSCT_CHECK(options.budgetBuckets >= 1);
  const int n = inst.numTasks();
  const std::vector<LevelMenu> menus = buildLevelMenus(
      inst, options.accuracyTargets, options.machineEnergyCaps);
  bool cancelled = false;

  // --- multiple-choice knapsack over the energy budget ---
  const double budget = inst.energyBudget();
  if (budget <= 0.0) {
    // No energy: everything is dropped at its floor accuracy.
    BaselineResult result{
        IntegralSchedule::build(
            inst, std::vector<int>(static_cast<std::size_t>(n), -1),
            std::vector<double>(static_cast<std::size_t>(n), 0.0)),
        0, n, 0.0, 0.0};
    result.totalAccuracy = result.schedule.totalAccuracy(inst);
    return result;
  }
  const int q = options.budgetBuckets;
  const double bucket = budget / static_cast<double>(q);
  // Energy cost in buckets, rounded up (never exceeds the real budget).
  const auto cost = [&](int task, const CompressionLevel& level) {
    const int r = menus[static_cast<std::size_t>(task)].machine;
    const double joules = level.flops / inst.machine(r).efficiency;
    return static_cast<long>(std::ceil(joules / bucket - 1e-12));
  };

  constexpr double kNoValue = -1.0;
  // dp[b] = max extra accuracy (above the floor) using <= b buckets.
  std::vector<double> dp(static_cast<std::size_t>(q) + 1, 0.0);
  // choice[task][b] = selected level index (−1 = drop) at the DP step.
  std::vector<std::vector<int>> choice(
      static_cast<std::size_t>(n),
      std::vector<int>(static_cast<std::size_t>(q) + 1, -1));

  for (int j = 0; j < n; ++j) {
    if (stopRequested(options.cancel)) {
      cancelled = true;
      break;  // tasks the DP never reached keep choice -1 (dropped)
    }
    const LevelMenu& menu = menus[static_cast<std::size_t>(j)];
    if (menu.machine < 0) continue;
    const double floor = inst.task(j).amin();
    std::vector<double> nextDp(static_cast<std::size_t>(q) + 1, kNoValue);
    for (int b = 0; b <= q; ++b) {
      // Option: drop (keep the floor accuracy; no energy).
      nextDp[static_cast<std::size_t>(b)] = dp[static_cast<std::size_t>(b)];
      for (std::size_t l = 0; l < menu.levels.size(); ++l) {
        const long c = cost(j, menu.levels[l]);
        if (c > b) continue;
        const double gain = menu.levels[l].accuracy - floor;
        const double candidate =
            dp[static_cast<std::size_t>(b - c)] + gain;
        if (candidate > nextDp[static_cast<std::size_t>(b)]) {
          nextDp[static_cast<std::size_t>(b)] = candidate;
          choice[static_cast<std::size_t>(j)][static_cast<std::size_t>(b)] =
              static_cast<int>(l);
        }
      }
    }
    dp = std::move(nextDp);
  }

  // --- reconstruct choices ---
  std::vector<int> machineOf(static_cast<std::size_t>(n), -1);
  std::vector<double> duration(static_cast<std::size_t>(n), 0.0);
  long b = q;
  for (int j = n; j-- > 0;) {
    const LevelMenu& menu = menus[static_cast<std::size_t>(j)];
    if (menu.machine < 0) continue;
    const int l = choice[static_cast<std::size_t>(j)][static_cast<std::size_t>(b)];
    if (l < 0) continue;  // dropped by the knapsack
    const CompressionLevel& level =
        menu.levels[static_cast<std::size_t>(l)];
    machineOf[static_cast<std::size_t>(j)] = menu.machine;
    duration[static_cast<std::size_t>(j)] =
        level.flops / inst.machine(menu.machine).speed;
    b -= cost(j, level);
    DSCT_DCHECK(b >= 0);
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
