// Algorithm 5 of the paper: DSCT-EA-APPROX.
//
// Rounds the optimal fractional solution to an integral one: tasks are
// placed (in deadline order) on the least-loaded machine whose fractional
// load quota w^max_r is not yet exhausted; each task receives its fractional
// FLOP quota translated to time on the chosen machine, clamped by the
// machine quota; deadline violations are then repaired by cutting and
// shifting. Satisfies OPT − G <= SOL <= OPT with G from guarantee.h.
#pragma once

#include "sched/fr_opt.h"
#include "sched/guarantee.h"
#include "sched/schedule.h"
#include "sched/types.h"

namespace dsct {

struct ApproxResult {
  IntegralSchedule schedule;
  FrOptResult fractional;       ///< the relaxation used for rounding
  GuaranteeBreakdown guarantee;
  double totalAccuracy = 0.0;   ///< SOL
  double upperBound = 0.0;      ///< OPT of the relaxation (DSCT-EA-UB)
  double energy = 0.0;          ///< Joules consumed by the integral schedule

  double optimalityGap() const { return upperBound - totalAccuracy; }
};

/// `options` (worker pool, cancel token, per-machine energy caps) configure
/// the FR-OPT solve whose fractional schedule is rounded.
ApproxResult solveApprox(const Instance& inst,
                         const FrOptOptions& options = {});

/// Rounding step alone (exposed for tests): integralises a fractional
/// solution using per-machine load quotas `wmax`. Placement never exceeds
/// the fractional per-machine loads, so if the fractional solution respects
/// per-machine energy caps the rounded one does too; `machineEnergyCaps`
/// (J, nullable — see FrOptOptions) only constrains the budget top-up pass,
/// which is the one step that can grow a machine past its fractional load.
IntegralSchedule roundFractional(
    const Instance& inst, const FractionalSchedule& fractional,
    const std::vector<double>* machineEnergyCaps = nullptr);

}  // namespace dsct
