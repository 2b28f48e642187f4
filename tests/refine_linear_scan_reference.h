// Test-only references for RefineProfile (Algorithm 3): the original linear
// donor scan, kept verbatim as the oracle for the live-donor set in
// src/sched/refine_profile.cpp, and the scratch deadline-slack scan, the
// oracle for sched/slack_engine.
//
// For every grower this loop probes every lower-ψ (task, segment, machine)
// pair from the cheapest end, live or dead, so a round is O(P²) in the pair
// count P. The production code walks only the pairs that can donate; the
// RefineLiveDonors differential in tests/sched_refine_test.cpp requires both
// to produce the same schedule and RefineStats bit for bit.
// The scratch scan answers each slack query with an O(n) column scan; the
// SlackEngine must match it bit for bit (tests/sched_slack_cache_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "sched/refine_profile.h"
#include "sched/schedule.h"
#include "sched/slack_engine.h"
#include "sched/types.h"

namespace dsct::testing {

namespace linear_scan_detail {

/// One (accuracy segment, machine) pair, the unit of the refinement search.
struct Pair {
  int task;
  int segment;
  int machine;
  double slope;  ///< segment slope (accuracy per TFLOP)
  double psi;    ///< accuracy-per-Joule ψ = slope · E_r
  double fLo;
  double fHi;
};

constexpr double kPsiTol = 1e-12;
/// Smallest energy (J) a transfer may move: the value of refine_profile.cpp's
/// file-local kMinTransfer.
constexpr double kMinTransfer = 1e-10;

}  // namespace linear_scan_detail

/// Deadline slack of (task, machine) by scratch scan: sequential prefix sums
/// over the machine column, early exit at the first exhausted slack.
inline double scratchSlack(const Instance& inst,
                           const FractionalSchedule& schedule, int task,
                           int machine) {
  double prefix = 0.0;
  for (int i = 0; i < task; ++i) prefix += schedule.at(i, machine);
  double slack = std::numeric_limits<double>::infinity();
  for (int i = task; i < inst.numTasks(); ++i) {
    prefix += schedule.at(i, machine);
    slack = std::min(slack, inst.task(i).deadline - prefix);
    if (slack <= 0.0) return 0.0;
  }
  return slack;
}

/// SlackEngine's interface over scratchSlack: every query scans, nothing is
/// memoised, and a transfer invalidates nothing. Counts queries only.
struct ScratchSlackScan {
  const Instance& inst;
  const FractionalSchedule& schedule;
  SlackCounters counts = {};

  double slack(int task, int machine) {
    ++counts.queries;
    return scratchSlack(inst, schedule, task, machine);
  }
  void onTransfer(int, int) {}
  const SlackCounters& counters() const { return counts; }
};

/// The linear donor scan, with deadline slacks served by `Slacks`:
/// SlackEngine (the production engine) or ScratchSlackScan (the oracle).
template <typename Slacks = SlackEngine>
RefineStats refineProfileLinearScan(const Instance& inst,
                                    FractionalSchedule& schedule,
                                    const RefineOptions& options = {}) {
  using linear_scan_detail::kMinTransfer;
  using linear_scan_detail::kPsiTol;
  using linear_scan_detail::Pair;
  RefineStats stats;
  const int n = inst.numTasks();
  const int m = inst.numMachines();
  if (n == 0) return stats;

  // Static pair list sorted by non-increasing accuracy-per-Joule.
  std::vector<Pair> pairs;
  for (int j = 0; j < n; ++j) {
    const PiecewiseLinearAccuracy& acc = inst.task(j).accuracy;
    for (int k = 0; k < acc.numSegments(); ++k) {
      const AccuracySegment seg = acc.segment(k);
      for (int r = 0; r < m; ++r) {
        const double e = inst.machine(r).efficiency;
        pairs.push_back({j, k, r, seg.slope, seg.slope * e, seg.fLo, seg.fHi});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.psi != b.psi) return a.psi > b.psi;
    if (a.task != b.task) return a.task < b.task;
    if (a.segment != b.segment) return a.segment < b.segment;
    return a.machine < b.machine;
  });

  // Current FLOP allocation per task, updated incrementally.
  std::vector<double> flops(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    flops[static_cast<std::size_t>(j)] = schedule.flops(inst, j);
  }

  Slacks slacks(inst, schedule);

  // Per-machine energy draw, tracked incrementally when caps are active so
  // growth never pushes a machine past its battery charge.
  const std::vector<double>* caps = options.machineEnergyCaps;
  std::vector<double> machineEnergy;
  if (caps != nullptr) {
    machineEnergy = schedule.machineLoads();
    for (int r = 0; r < m; ++r) {
      machineEnergy[static_cast<std::size_t>(r)] *= inst.machine(r).power();
    }
  }

  for (stats.rounds = 0; stats.rounds < options.maxRounds; ++stats.rounds) {
    if (stopRequested(options.cancel)) break;
    long transfersThisRound = 0;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const Pair& grow = pairs[p];
      if (grow.slope <= 0.0) continue;  // flat segments can only donate
      const Machine& mr = inst.machine(grow.machine);
      const double fj = flops[static_cast<std::size_t>(grow.task)];
      // Fill at most to the end of this segment; earlier (steeper) segments
      // were already offered growth by higher-ψ pairs, so the realised
      // marginal gain is at least grow.slope per TFLOP (concavity).
      const double growFlops = grow.fHi - fj;
      if (growFlops <= 1e-12) continue;
      const double slack = slacks.slack(grow.task, grow.machine);
      double eAdd = std::min(growFlops / mr.efficiency,
                             std::max(0.0, slack) * mr.power());
      if (caps != nullptr &&
          static_cast<std::size_t>(grow.machine) < caps->size()) {
        eAdd = std::min(
            eAdd, std::max(0.0, (*caps)[static_cast<std::size_t>(
                                    grow.machine)] -
                                    machineEnergy[static_cast<std::size_t>(
                                        grow.machine)]));
      }
      if (eAdd <= kMinTransfer) continue;

      // Scan donors from the cheapest ψ upward (paper line 9's reverse
      // iteration); stop once donors are no cheaper than the grower.
      for (std::size_t q = pairs.size(); q-- > p + 1 && eAdd > kMinTransfer;) {
        const Pair& shrink = pairs[q];
        if (shrink.psi >= grow.psi - kPsiTol) break;
        const double tShrink = schedule.at(shrink.task, shrink.machine);
        if (tShrink <= 1e-12) continue;
        const Machine& ms = inst.machine(shrink.machine);
        const double fj2 = flops[static_cast<std::size_t>(shrink.task)];
        const double usedInSeg =
            std::clamp(fj2 - shrink.fLo, 0.0, shrink.fHi - shrink.fLo);
        if (usedInSeg <= 1e-12) continue;
        const double eSub =
            std::min(usedInSeg / ms.efficiency, tShrink * ms.power());
        const double eTransfer = std::min(eAdd, eSub);
        if (eTransfer <= kMinTransfer) continue;

        schedule.add(grow.task, grow.machine, eTransfer / mr.power());
        flops[static_cast<std::size_t>(grow.task)] +=
            eTransfer * mr.efficiency;
        schedule.set(shrink.task, shrink.machine,
                     std::max(0.0, tShrink - eTransfer / ms.power()));
        flops[static_cast<std::size_t>(shrink.task)] -=
            eTransfer * ms.efficiency;

        slacks.onTransfer(grow.machine, shrink.machine);
        if (caps != nullptr) {
          machineEnergy[static_cast<std::size_t>(grow.machine)] += eTransfer;
          machineEnergy[static_cast<std::size_t>(shrink.machine)] -=
              eTransfer;
        }

        eAdd -= eTransfer;
        stats.energyMoved += eTransfer;
        ++stats.transfers;
        ++transfersThisRound;
      }
    }
    if (transfersThisRound == 0) break;
  }
  stats.slack = slacks.counters();
  return stats;
}

}  // namespace dsct::testing
