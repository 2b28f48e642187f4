#include "sched/profile_evaluator.h"

#include <algorithm>

#include "sched/naive_solution.h"
#include "util/check.h"

namespace dsct {

namespace {

/// Prefix j counts as tight when D_j − Σ_{i<=j} w_i is at most this share of
/// max(1, D_j). A near-tight prefix counted as tight raises the cut by its
/// y·slack, which keeps it valid; a tight one missed merges two blocks and
/// invalidates it.
constexpr double kTightTol = 1e-9;
/// A work amount this share of max(1, f^max) below a breakpoint (or below
/// f^max) is read as sitting on it: one ulp short of f^max must not report
/// the last segment's slope (DESIGN.md §25, the snap guard).
constexpr double kSnapTol = 1e-12;

/// Right slope a'⁺(w) of a task that can still grow, after the snap; 0 for
/// a task at f^max, which bounds no block's dual from below.
double openSlope(const PiecewiseLinearAccuracy& acc, double w) {
  const double snap = kSnapTol * std::max(1.0, acc.fmax());
  if (w >= acc.fmax() - snap) return 0.0;
  int k = acc.segmentOf(w);
  if (acc.breakpoint(k + 1) - w <= snap) ++k;
  return acc.slope(k);
}

/// Fills `cut`'s slack and supergradient at `profile` from one Algorithm-1
/// work vector (DESIGN.md §25). Tight prefixes split the tasks into blocks;
/// block k's suffix dual is Y_k = max(up_k, Y_{k+1}) with up_k the largest
/// open slope in the block and Y = 0 past the last tight prefix, and its
/// tight prefix t_k carries y = Y_k − Y_{k+1}. Chained through D_j(p) =
/// Σ_r s_r·min(d_j, p_r), g_r = s_r·Σ_{j : p_r < d_j} y_j, which telescopes
/// to s_r·Y of the first block whose tight prefix has d > p_r.
void supergradient(const Instance& inst, const EnergyProfile& profile,
                   const std::vector<double>& temp,
                   const std::vector<double>& work, ProfileCut& cut) {
  std::vector<double> blockDeadline;  ///< d of each block's tight prefix
  std::vector<double> blockSlack;     ///< D − Σ w at each tight prefix
  std::vector<double> blockY;
  double prefix = 0.0;
  double up = 0.0;
  for (int j = 0; j < inst.numTasks(); ++j) {
    const std::size_t uj = static_cast<std::size_t>(j);
    prefix += work[uj];
    up = std::max(up, openSlope(inst.task(j).accuracy, work[uj]));
    const double slack = temp[uj] - prefix;
    if (slack <= kTightTol * std::max(1.0, temp[uj])) {
      blockDeadline.push_back(inst.task(j).deadline);
      blockSlack.push_back(std::max(0.0, slack));
      blockY.push_back(up);
      up = 0.0;
    }
  }
  for (std::size_t k = blockY.size(); k-- > 1;) {
    blockY[k - 1] = std::max(blockY[k - 1], blockY[k]);
  }
  for (std::size_t k = 0; k < blockY.size(); ++k) {
    const double next = k + 1 < blockY.size() ? blockY[k + 1] : 0.0;
    cut.slack += (blockY[k] - next) * blockSlack[k];
  }
  std::vector<double>& gradient = cut.gradient;
  gradient.assign(profile.size(), 0.0);
  for (int r = 0; r < inst.numMachines(); ++r) {
    const std::size_t ur = static_cast<std::size_t>(r);
    const auto it = std::upper_bound(blockDeadline.begin(),
                                     blockDeadline.end(), profile[ur]);
    if (it == blockDeadline.end()) continue;
    gradient[ur] = inst.machine(r).speed *
                   blockY[static_cast<std::size_t>(it - blockDeadline.begin())];
  }
}

}  // namespace

ProfileEvaluator::ProfileEvaluator(const Instance& inst) : inst_(inst) {
  sortedSegments_ = makeSegmentJobs(inst.tasks());
  sortSegmentJobs(sortedSegments_);
}

ProfileCut ProfileEvaluator::evaluateWithCut(
    const EnergyProfile& profile) const {
  DSCT_DCHECK(static_cast<int>(profile.size()) == inst_.numMachines());
  ++counters_.evaluations;
  const std::vector<double> temp = temporaryDeadlines(inst_, profile);
  const std::vector<double> work =
      scheduleSingleMachineSorted(temp, 1.0, sortedSegments_);
  ProfileCut cut;
  for (int j = 0; j < inst_.numTasks(); ++j) {
    cut.value += inst_.task(j).accuracy.value(work[static_cast<std::size_t>(j)]);
  }
  supergradient(inst_, profile, temp, work, cut);
  return cut;
}

FractionalSchedule ProfileEvaluator::schedule(
    const EnergyProfile& profile) const {
  DSCT_DCHECK(static_cast<int>(profile.size()) == inst_.numMachines());
  ++counters_.scheduleSolves;
  if (inst_.numTasks() == 0) {
    return FractionalSchedule(0, inst_.numMachines());
  }
  return distributeWork(
      inst_, profile,
      scheduleSingleMachineSorted(temporaryDeadlines(inst_, profile), 1.0,
                                  sortedSegments_));
}

}  // namespace dsct
