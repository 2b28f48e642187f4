#include "sched/approx.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.h"

namespace dsct {

namespace {

/// Budget top-up pass (implementation refinement over the paper's
/// Algorithm 5): after rounding, spend any leftover energy budget by
/// greedily extending the task with the best accuracy-per-Joule, subject to
/// deadline slack on its machine. Strictly improves accuracy, keeps
/// feasibility (so SOL <= OPT still holds), and makes the algorithm
/// converge to a_max in the generous regime exactly as the paper's Fig. 5
/// reports.
void topUp(const Instance& inst, std::vector<int>& machineOf,
           std::vector<double>& duration,
           const std::vector<double>* machineEnergyCaps) {
  const int n = inst.numTasks();
  const int m = inst.numMachines();

  // Give dropped tasks a zero-duration slot on some machine so the top-up
  // can grow them; pick the machine with the most slack at their position.
  const auto slackAt = [&](int j, int r) {
    double prefix = 0.0;
    double slack = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      if (machineOf[static_cast<std::size_t>(i)] == r || i == j) {
        prefix += (i == j && machineOf[static_cast<std::size_t>(i)] != r)
                      ? 0.0
                      : duration[static_cast<std::size_t>(i)];
      }
      if (i >= j &&
          (machineOf[static_cast<std::size_t>(i)] == r || i == j)) {
        slack = std::min(slack, inst.task(i).deadline - prefix);
      }
    }
    return slack;
  };
  for (int j = 0; j < n; ++j) {
    if (machineOf[static_cast<std::size_t>(j)] >= 0) continue;
    int best = -1;
    double bestSlack = 0.0;
    for (int r = 0; r < m; ++r) {
      const double slack = slackAt(j, r);
      if (slack > bestSlack) {
        bestSlack = slack;
        best = r;
      }
    }
    if (best >= 0) {
      machineOf[static_cast<std::size_t>(j)] = best;
      duration[static_cast<std::size_t>(j)] = 0.0;
    }
  }

  double budget = inst.energyBudget();
  std::vector<double> machineEnergy(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < n; ++j) {
    const int r = machineOf[static_cast<std::size_t>(j)];
    if (r >= 0) {
      const double e =
          duration[static_cast<std::size_t>(j)] * inst.machine(r).power();
      budget -= e;
      machineEnergy[static_cast<std::size_t>(r)] += e;
    }
  }
  // Remaining battery charge of machine r in seconds of load, or +inf when
  // uncapped. Growth on a drained machine is blocked like exhausted slack.
  const auto capSeconds = [&](int r) {
    if (machineEnergyCaps == nullptr) {
      return std::numeric_limits<double>::infinity();
    }
    const double power = inst.machine(r).power();
    if (power <= 0.0) return std::numeric_limits<double>::infinity();
    return std::max(0.0,
                    (*machineEnergyCaps)[static_cast<std::size_t>(r)] -
                        machineEnergy[static_cast<std::size_t>(r)]) /
           power;
  };

  // Greedy extension: repeatedly grow the (task, machine) slot with the
  // highest marginal accuracy-per-Joule. A slot whose deadline slack is
  // exhausted is blocked permanently (nothing ever shrinks here, so slack
  // never returns). Each productive step completes a segment, a deadline,
  // or the budget, so the loop is bounded by O(n·(K + 2)).
  std::vector<char> blocked(static_cast<std::size_t>(n), 0);
  const int maxSteps = n * 16 + 64;
  for (int step = 0; step < maxSteps && budget > 1e-12; ++step) {
    int bestTask = -1;
    double bestPsi = 0.0;
    for (int j = 0; j < n; ++j) {
      if (blocked[static_cast<std::size_t>(j)]) continue;
      const int r = machineOf[static_cast<std::size_t>(j)];
      if (r < 0) continue;
      const double f =
          duration[static_cast<std::size_t>(j)] * inst.machine(r).speed;
      const double gain = inst.task(j).accuracy.marginalGain(f);
      if (gain <= 0.0) continue;
      const double psi = gain * inst.machine(r).efficiency;
      if (psi > bestPsi) {
        bestPsi = psi;
        bestTask = j;
      }
    }
    if (bestTask < 0) break;
    const int r = machineOf[static_cast<std::size_t>(bestTask)];
    const Machine& machine = inst.machine(r);
    const Task& task = inst.task(bestTask);
    const double f =
        duration[static_cast<std::size_t>(bestTask)] * machine.speed;
    // Grow at most to the end of the current segment (the marginal gain is
    // constant there), the deadline slack, and the remaining budget.
    const int seg = task.accuracy.segmentOf(f);
    const double fTarget =
        std::min(task.fmax(), task.accuracy.breakpoint(seg + 1));
    const double delta =
        std::min({(fTarget - f) / machine.speed, slackAt(bestTask, r),
                  budget / machine.power(), capSeconds(r)});
    if (delta <= 1e-15) {
      blocked[static_cast<std::size_t>(bestTask)] = 1;
      continue;
    }
    duration[static_cast<std::size_t>(bestTask)] += delta;
    budget -= delta * machine.power();
    machineEnergy[static_cast<std::size_t>(r)] += delta * machine.power();
  }
}

}  // namespace

IntegralSchedule roundFractional(
    const Instance& inst, const FractionalSchedule& fractional,
    const std::vector<double>* machineEnergyCaps) {
  const int n = inst.numTasks();
  const int m = inst.numMachines();
  DSCT_CHECK_MSG(machineEnergyCaps == nullptr ||
                     machineEnergyCaps->size() == static_cast<std::size_t>(m),
                 "machineEnergyCaps has " << machineEnergyCaps->size()
                     << " entries for " << m << " machines");
  constexpr double kTol = 1e-12;

  // Machine quotas: the fractional load of each machine. Keeping the rounded
  // loads within these quotas keeps total energy within the fractional
  // energy, hence within the budget.
  const std::vector<double> wmax = fractional.machineLoads();
  std::vector<double> w(static_cast<std::size_t>(m), 0.0);

  std::vector<int> machineOf(static_cast<std::size_t>(n), -1);
  std::vector<double> duration(static_cast<std::size_t>(n), 0.0);

  // --- placement (lines 7-12): least-loaded non-full machine ---
  for (int j = 0; j < n; ++j) {
    int best = -1;
    for (int r = 0; r < m; ++r) {
      const double room = wmax[static_cast<std::size_t>(r)] -
                          w[static_cast<std::size_t>(r)];
      if (room <= kTol) continue;
      if (best < 0 ||
          w[static_cast<std::size_t>(r)] < w[static_cast<std::size_t>(best)]) {
        best = r;
      }
    }
    if (best < 0) break;  // all machine quotas exhausted; remaining tasks drop
    const double quotaFlops = fractional.flops(inst, j);
    const double desired = quotaFlops / inst.machine(best).speed;
    const double granted =
        std::min(desired, wmax[static_cast<std::size_t>(best)] -
                              w[static_cast<std::size_t>(best)]);
    machineOf[static_cast<std::size_t>(j)] = best;
    duration[static_cast<std::size_t>(j)] = std::max(0.0, granted);
    w[static_cast<std::size_t>(best)] += duration[static_cast<std::size_t>(j)];
  }

  // --- deadline repair (lines 13-19): cut and shift ---
  // Tasks are stacked per machine in deadline order; cutting a task lets all
  // later tasks on the machine start earlier, so one forward pass per
  // machine suffices.
  std::vector<double> clock(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < n; ++j) {
    const int r = machineOf[static_cast<std::size_t>(j)];
    if (r < 0) continue;
    const double start = clock[static_cast<std::size_t>(r)];
    double dur = duration[static_cast<std::size_t>(j)];
    const double dj = inst.task(j).deadline;
    if (start + dur > dj) {
      dur = std::max(0.0, dj - start);  // cut the violating tail
      duration[static_cast<std::size_t>(j)] = dur;
    }
    // fmax safety: rounding can only reduce a task's FLOPs relative to the
    // fractional solution when speeds are heterogeneous... except when the
    // chosen machine is faster than the fractional mix; clamp to fmax.
    const double fmaxSeconds = inst.task(j).fmax() / inst.machine(r).speed;
    if (dur > fmaxSeconds) {
      dur = fmaxSeconds;
      duration[static_cast<std::size_t>(j)] = dur;
    }
    clock[static_cast<std::size_t>(r)] += dur;
  }

  // --- budget top-up (implementation refinement; see topUp above) ---
  topUp(inst, machineOf, duration, machineEnergyCaps);

  return IntegralSchedule::build(inst, std::move(machineOf),
                                 std::move(duration));
}

ApproxResult solveApprox(const Instance& inst, const FrOptOptions& options) {
  FrOptResult fr = solveFrOpt(inst, options);
  IntegralSchedule rounded =
      roundFractional(inst, fr.schedule, options.machineEnergyCaps);
  ApproxResult result{std::move(rounded), std::move(fr),
                      approximationGuarantee(inst), 0.0, 0.0, 0.0};
  result.totalAccuracy = result.schedule.totalAccuracy(inst);
  result.upperBound = result.fractional.totalAccuracy;
  result.energy = result.schedule.energy(inst);
  return result;
}

}  // namespace dsct
