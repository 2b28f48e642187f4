// Algorithm 3 of the paper: RefineProfile.
//
// Starting from the naive-profile solution, transfers energy from
// (segment, machine) pairs with low accuracy-per-Joule ψ = slope · E_r to
// pairs with high ψ, subject to deadline slack, until no beneficial transfer
// remains. Combined with ComputeNaiveSolution this yields the optimal
// fractional solution (KKT argument in the paper, cross-checked against the
// LP in our tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sched/schedule.h"
#include "sched/single_machine.h"
#include "sched/slack_engine.h"
#include "sched/types.h"
#include "util/cancel.h"

namespace dsct {

struct RefineOptions {
  /// Upper bound on full passes over the pair list; each pass that performs
  /// at least one transfer is followed by another, so this is a safety net.
  int maxRounds = 64;
  /// Cooperative stop token, polled at round boundaries. The schedule stays
  /// valid on early exit (transfers are atomic); only optimality is lost.
  const CancelToken* cancel = nullptr;
  /// Optional per-machine energy caps (J, indexed like the instance's
  /// machines): the availability layer's battery charges (DESIGN.md §15).
  /// Growth on machine r is additionally bounded by cap_r minus its current
  /// energy draw; shrink moves only release energy, so a schedule that starts
  /// under its caps stays under them. Null is bit-identical to a build
  /// without this field; otherwise the vector must hold one cap per machine.
  const std::vector<double>* machineEnergyCaps = nullptr;
};

struct RefineStats {
  int rounds = 0;
  long transfers = 0;
  double energyMoved = 0.0;  ///< total Joules re-allocated
  SlackCounters slack;       ///< slack-engine cache behaviour

  void add(const RefineStats& other) {
    rounds += other.rounds;
    transfers += other.transfers;
    energyMoved += other.energyMoved;
    slack.add(other.slack);
  }
};

/// One (accuracy segment, machine) pair, the unit of the refinement search.
struct RefinePair {
  int task;
  int segment;
  int machine;
  double slope;  ///< segment slope (accuracy per TFLOP)
  double psi;    ///< accuracy-per-Joule ψ = slope · E_r
  double fLo;
  double fHi;
};

/// Refine's walk order, which depends on the instance alone (DESIGN.md §19):
/// every (segment, machine) pair by non-increasing ψ, ties broken by (task,
/// segment, machine). Build it once per instance; every refineProfile call
/// on that instance can walk it.
struct RefinePlan {
  std::vector<RefinePair> pairs;  ///< in walk order
  /// firstSeg[j] numbers task j's segments globally (firstSeg[n] is the
  /// segment count S), so (firstSeg[j] + k) · m + r is pair (j, k, r)'s
  /// creation index.
  std::vector<std::size_t> firstSeg;
  /// Creation index → index into `pairs`.
  std::vector<std::uint32_t> position;
};

/// Builds the plan from the instance's segment jobs in sortSegmentJobs
/// order (the ProfileEvaluator keeps that list). O(P log m) for P = S·m
/// pairs on m machines.
RefinePlan buildRefinePlan(const Instance& inst,
                           std::span<const SegmentJob> sortedSegments);
/// Builds the plan, sorting the instance's segment jobs first.
RefinePlan buildRefinePlan(const Instance& inst);

/// Refines `schedule` in place, walking `plan`, which must be the instance's
/// plan. Total energy consumption never increases; total accuracy never
/// decreases.
RefineStats refineProfile(const Instance& inst, const RefinePlan& plan,
                          FractionalSchedule& schedule,
                          const RefineOptions& options = {});
/// One-shot form: builds the instance's plan for this call alone.
RefineStats refineProfile(const Instance& inst, FractionalSchedule& schedule,
                          const RefineOptions& options = {});

}  // namespace dsct
