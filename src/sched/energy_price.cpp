#include "sched/energy_price.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace dsct {

namespace {

/// (ψ, energy) items for every positive-slope segment, deadline-capped.
std::vector<std::pair<double, double>> demandItems(const Instance& inst) {
  std::vector<std::pair<double, double>> items;
  if (inst.numMachines() == 0) return items;
  double bestEff = 0.0;
  for (const Machine& machine : inst.machines()) {
    bestEff = std::max(bestEff, machine.efficiency);
  }
  if (bestEff <= 0.0) return items;
  const double totalSpeed = inst.totalSpeed();
  for (int j = 0; j < inst.numTasks(); ++j) {
    const Task& task = inst.task(j);
    // The whole fleet working for this task until its deadline bounds its
    // usable FLOPs; segments past that point can never be funded.
    const double fCap = std::min(task.fmax(), task.deadline * totalSpeed);
    if (fCap <= 0.0) continue;
    for (int k = 0; k < task.accuracy.numSegments(); ++k) {
      const AccuracySegment seg = task.accuracy.segment(k);
      if (seg.slope <= 0.0) continue;
      const double width = std::min(seg.fHi, fCap) - seg.fLo;
      if (width <= 0.0) continue;
      items.emplace_back(seg.slope * bestEff, width / bestEff);
    }
  }
  return items;
}

double horizonCapacity(const Instance& inst) {
  const double horizon = inst.maxDeadline();
  double cap = 0.0;
  for (const Machine& machine : inst.machines()) {
    cap += horizon * machine.power();
  }
  return cap;
}

}  // namespace

PricedDemandCurve::PricedDemandCurve(const Instance& inst)
    : capEnergy_(horizonCapacity(inst)) {
  std::vector<std::pair<double, double>> items = demandItems(inst);
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  double cumulative = 0.0;
  for (const auto& [psi, joules] : items) {
    cumulative += joules;
    if (!psi_.empty() && psi_.back() == psi) {
      energy_.back() = cumulative;  // merge equal-ψ steps
    } else {
      psi_.push_back(psi);
      energy_.push_back(cumulative);
    }
  }
}

double PricedDemandCurve::demandAt(double lambda) const {
  // Fund every step with ψ strictly above λ: the first index at or below λ
  // (ψ descending) is the end of the funded prefix.
  const auto it = std::lower_bound(
      psi_.begin(), psi_.end(), lambda,
      [](double psi, double value) { return psi > value; });
  if (it == psi_.begin()) return 0.0;
  const double funded =
      energy_[static_cast<std::size_t>(it - psi_.begin()) - 1];
  return std::min(funded, capEnergy_);
}

double PricedDemandCurve::largestPsiAtMost(double price) const {
  // psi_ is descending: the first element <= price is the largest such.
  const auto it = std::lower_bound(
      psi_.begin(), psi_.end(), price,
      [](double psi, double value) { return psi > value; });
  return it == psi_.end() ? 0.0 : *it;
}

}  // namespace dsct
