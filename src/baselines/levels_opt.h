// EDF-LevelsOpt: discrete compression levels with *optimal* energy
// allocation (a stronger variant of the Lee & Song-style baseline).
//
// Routing is greedy (each task goes, in EDF order, to the machine where its
// highest deadline-feasible level is largest; ties to the least-loaded
// machine), but the level chosen per task is then decided globally by an
// exact multiple-choice knapsack over the energy budget (DP on a
// discretised budget; costs are rounded *up*, so the budget is never
// exceeded and the result is optimal for the chosen routing up to the
// discretisation resolution).
#pragma once

#include <vector>

#include "accuracy/levels.h"
#include "baselines/edf_nocompress.h"
#include "sched/types.h"

namespace dsct {

struct EdfLevelsOptOptions {
  std::vector<double> accuracyTargets{0.27, 0.55, 0.82};
  /// Budget discretisation buckets for the knapsack DP.
  int budgetBuckets = 2048;
  /// Cooperative stop token, polled per task in both the routing pass and
  /// the knapsack DP; tasks the DP never reached stay dropped.
  const CancelToken* cancel = nullptr;
  /// Optional per-machine energy caps (J, indexed like the instance's
  /// machines): the availability layer's battery charges (DESIGN.md §15).
  /// Enforced conservatively at routing time — a level counts as feasible on
  /// machine r only if reserving its energy on top of the levels already
  /// reserved there stays within cap_r. The knapsack only ever shrinks the
  /// reserved levels, so the caps hold for the final schedule. Null is
  /// bit-identical to a build without this field; otherwise the vector must
  /// hold one cap per machine.
  const std::vector<double>* machineEnergyCaps = nullptr;
};

/// The per-task level menu after routing: the machine the task would run
/// on and the deadline-feasible levels there (ascending flops). An empty
/// level list means the task is dropped by routing.
struct LevelMenu {
  int machine = -1;
  std::vector<CompressionLevel> levels;
};

/// Routing step alone (exposed for testing). `machineEnergyCaps` filters
/// levels whose reserved energy would overdraw a machine's battery (see
/// EdfLevelsOptOptions::machineEnergyCaps); null means uncapped.
std::vector<LevelMenu> buildLevelMenus(
    const Instance& inst, const std::vector<double>& accuracyTargets,
    const std::vector<double>* machineEnergyCaps = nullptr);

BaselineResult solveEdfLevelsOpt(const Instance& inst,
                                 const EdfLevelsOptOptions& options = {});

}  // namespace dsct
