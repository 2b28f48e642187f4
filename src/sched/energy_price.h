// Lagrangian energy pricing (DESIGN.md §18): how much energy an instance
// "wants" when every Joule costs λ units of accuracy.
//
// The paper's KKT analysis prices the energy budget: at the fractional
// optimum every funded (segment, machine) pair has accuracy-per-Joule
// ψ = slope · E_r at least the budget row's dual price, and every unfunded
// pair at most it. The demand oracle below exploits that structure directly:
// at price λ it funds exactly the accuracy segments whose ψ on the fleet's
// most efficient machine exceeds λ, capped by each task's deadline-window
// capacity and the fleet's horizon energy capacity. The resulting demand
// D(λ) is a non-increasing step function of λ — the monotone curve the shard
// coordinator bisects to split one global budget across cells.
//
// The oracle is deliberately optimistic (it ignores task interleaving):
// feasibility is enforced by the full per-cell solves that run at the
// resulting budgets, and the coordinator rescales the per-cell demands so
// they always sum to at most B.
#pragma once

#include <vector>

#include "sched/types.h"

namespace dsct {

/// The energy (J) `inst` demands as a function of the energy price λ
/// (accuracy/J), precomputed for repeated evaluation (the shard
/// coordinator's price loop evaluates one curve per cell per iteration).
/// The curve reads the instance's tasks and machines, never its budget.
class PricedDemandCurve {
 public:
  explicit PricedDemandCurve(const Instance& inst);

  /// D(λ): every accuracy segment with ψ = slope · E* > λ on the most
  /// efficient machine E* is funded, task FLOPs capped by the work the
  /// whole fleet could deliver inside the task's deadline, the total capped
  /// at the fleet's horizon energy capacity. A non-increasing step
  /// function; λ <= 0 funds everything. O(log segments) per call.
  double demandAt(double lambda) const;
  /// The largest ψ over all funded segments (0 for empty instances); above
  /// this price the demand is 0.
  double maxPsi() const { return psi_.empty() ? 0.0 : psi_.front(); }
  /// The fleet's horizon energy capacity Σ_r d_max · P_r — demand never
  /// exceeds it.
  double capEnergy() const { return capEnergy_; }
  /// The largest segment ψ that is <= `price` (0 when none): the only values
  /// where D(λ) changes. Bisection snaps its probes here, so the price loop
  /// terminates as soon as a bracket holds no breakpoint instead of halving
  /// floats forever.
  double largestPsiAtMost(double price) const;

 private:
  std::vector<double> psi_;     ///< distinct segment ψ values, descending
  std::vector<double> energy_;  ///< energy_[i]: J demanded when λ < psi_[i]
  double capEnergy_ = 0.0;
};

}  // namespace dsct
