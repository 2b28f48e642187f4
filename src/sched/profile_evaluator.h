// Profile-evaluation engine for DSCT-EA-FR-OPT's profile search.
//
// FR-OPT's cutting-plane search (DESIGN.md §25) asks one question per
// visited profile: "what is the optimal total accuracy V(p) under
// per-machine load caps p, and how does it change with p?". Answering it
// from scratch re-flattens and re-sorts the segment jobs and materialises a
// full n×m schedule each time. This engine precomputes the sorted segment
// list once per instance and answers both halves in a single fused pass
// (temporary deadlines → Algorithm 1 → accuracy and supergradient, no
// schedule matrix); it materialises a schedule only when asked, and counts
// both kinds of work so benchmarks can see where it goes.
#pragma once

#include <span>
#include <vector>

#include "sched/energy_profile.h"
#include "sched/schedule.h"
#include "sched/single_machine.h"
#include "sched/types.h"

namespace dsct {

/// Observability counters for one evaluator (and, via FrOptResult, one
/// FR-OPT solve).
struct EvaluatorCounters {
  long long evaluations = 0;    ///< fused profile evaluations performed
  long long scheduleSolves = 0; ///< full n×m schedule materialisations
};

/// V(p) and one supergradient of V at p: V(q) <= value + slack +
/// gradient·(q − p) for every profile q (V is concave, DESIGN.md §25).
struct ProfileCut {
  double value = 0.0;
  /// Σ_j y_j·(D_j(p) − Σ_{i<=j} w_i): the dual-weighted room left on the
  /// prefixes counted as tight; 0 when every one of them is exactly tight.
  double slack = 0.0;
  std::vector<double> gradient;  ///< accuracy per second of load, per machine
};

/// One evaluator serves one solve on one thread: the counters are plain.
class ProfileEvaluator {
 public:
  explicit ProfileEvaluator(const Instance& inst);

  ProfileEvaluator(const ProfileEvaluator&) = delete;
  ProfileEvaluator& operator=(const ProfileEvaluator&) = delete;

  /// Optimal total accuracy under per-machine load caps `profile`, without
  /// materialising the schedule, and a supergradient read off the same
  /// Algorithm-1 pass; counts as one evaluation.
  ProfileCut evaluateWithCut(const EnergyProfile& profile) const;

  /// Full optimal schedule for `profile` (Algorithm 2's core), reusing the
  /// pre-sorted segment list.
  FractionalSchedule schedule(const EnergyProfile& profile) const;

  /// Snapshot of the counters accumulated so far.
  EvaluatorCounters counters() const { return counters_; }

  /// The instance's segment jobs in sortSegmentJobs order, built once.
  std::span<const SegmentJob> sortedSegments() const {
    return sortedSegments_;
  }

 private:
  const Instance& inst_;
  std::vector<SegmentJob> sortedSegments_;  ///< slope-desc, built once
  mutable EvaluatorCounters counters_;
};

}  // namespace dsct
