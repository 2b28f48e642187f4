// Algorithm 4 of the paper: DSCT-EA-FR-OPT — optimal solution of the
// fractional relaxation via ComputeNaiveSolution + RefineProfile, with
// profile-space escape searches driven by the ProfileEvaluator engine.
#pragma once

#include <functional>
#include <optional>

#include "sched/energy_profile.h"
#include "sched/profile_evaluator.h"
#include "sched/refine_profile.h"
#include "sched/schedule.h"
#include "sched/types.h"

namespace dsct {

class ThreadPool;

/// Per-solve observability: how much work the profile searches did and where
/// the wall time went (rendered by bench/micro_algorithms and
/// bench/table1_fr_times).
struct FrOptCounters {
  long long evaluations = 0;       ///< fused profile evaluations
  long long cacheHits = 0;         ///< memoised evaluations served
  long long scheduleSolves = 0;    ///< full n×m schedule materialisations
  long long directionLpSolves = 0; ///< direction-search LP solves
  int outerRounds = 0;             ///< fixed-point rounds executed
  int pairMoves = 0;               ///< adopted pairwise profile transfers
  int directionSteps = 0;          ///< adopted direction-search steps
  double expandSeconds = 0.0;      ///< wall time in expansion candidates
  double refineSeconds = 0.0;      ///< wall time in RefineProfile + its plan
  double pairSeconds = 0.0;        ///< wall time in the pairwise search
  double directionSeconds = 0.0;   ///< wall time in the direction search
  double totalSeconds = 0.0;       ///< whole solve

  // RefineProfile's incremental slack engine, summed over the refine calls
  // made (a call on a settled schedule is skipped, DESIGN.md §19).
  long long slackQueries = 0;
  long long slackHits = 0;          ///< served from the (task, machine) memo
  long long slackRebuilds = 0;      ///< per-machine column recomputations
  long long slackInvalidations = 0; ///< machine version bumps

  /// Always 0; only perfbench reads it.
  long long crossHits = 0;
  /// Always 0; only perfbench reads it.
  long long crossMisses = 0;

  /// Folds another solve's counters in: work and time add up.
  void add(const FrOptCounters& other) {
    evaluations += other.evaluations;
    cacheHits += other.cacheHits;
    scheduleSolves += other.scheduleSolves;
    directionLpSolves += other.directionLpSolves;
    outerRounds += other.outerRounds;
    pairMoves += other.pairMoves;
    directionSteps += other.directionSteps;
    expandSeconds += other.expandSeconds;
    refineSeconds += other.refineSeconds;
    pairSeconds += other.pairSeconds;
    directionSeconds += other.directionSeconds;
    totalSeconds += other.totalSeconds;
    slackQueries += other.slackQueries;
    slackHits += other.slackHits;
    slackRebuilds += other.slackRebuilds;
    slackInvalidations += other.slackInvalidations;
  }
};

struct FrOptOptions {
  /// Borrowed worker pool for the independent profile evaluations
  /// (expansion candidates, pairwise directions, derivative probes). Null
  /// runs serially; both modes produce bit-identical schedules — evaluations
  /// are pure functions of their profile and all reductions are
  /// index-ordered. Safe to pass the pool whose worker is running this
  /// solve: the fan-out then executes inline.
  ThreadPool* pool = nullptr;
  /// Cooperative stop token, polled at the outer fixed-point rounds and
  /// inside the pair/direction escape searches (and forwarded to
  /// RefineProfile's round loop, which otherwise runs with the
  /// RefineOptions defaults). On early exit the incumbent schedule is
  /// returned with `cancelled` set — it is feasible but may be suboptimal.
  const CancelToken* cancel = nullptr;
  /// Optional per-machine energy caps (J, indexed like the instance's
  /// machines): the availability layer's battery charges (DESIGN.md §15).
  /// A cap is one more projection in the profile search — machine r's load
  /// never exceeds cap_r / P_r seconds, in the naive start, the expansion
  /// candidates, the pairwise transfers, the direction search, and
  /// RefineProfile's grow side. Null means uncapped and is bit-identical to
  /// a build without this field; otherwise the vector must hold one cap per
  /// machine (any other length is a CheckError naming both sizes).
  const std::vector<double>* machineEnergyCaps = nullptr;
};

struct FrOptResult {
  FractionalSchedule schedule;
  EnergyProfile naiveProfile;    ///< profile before refinement
  EnergyProfile refinedProfile;  ///< realised machine loads after refinement
  RefineStats refineStats;
  FrOptCounters counters;
  double totalAccuracy = 0.0;
  double energy = 0.0;  ///< Joules actually consumed
  /// True when the solve stopped early at a cancel-token poll point.
  bool cancelled = false;
};

FrOptResult solveFrOpt(const Instance& inst, const FrOptOptions& options = {});

/// One pairwise-transfer step (exposed for testing): the best energy-moving
/// transfer over all machine pairs starting from `loads`, or nullopt when no
/// direction improves on `baseAccuracy`. Every probed move conserves energy:
/// the search interval is capped at min(donor energy, headroom-to-horizon of
/// the recipient), so no probe silently discards energy at the horizon.
struct PairMove {
  int from = -1;
  int to = -1;
  double delta = 0.0;     ///< Joules moved from `from` to `to`
  double accuracy = 0.0;  ///< evaluator accuracy of `profile`
  EnergyProfile profile;  ///< loads after the move
};
/// Validator hook for property tests: invoked with every profile the pair
/// search is about to evaluate (screen probes, ternary-search probes, and
/// the final move profile), together with the direction and transfer size
/// that produced it. When a ThreadPool is supplied the hook runs on worker
/// threads and must be thread-safe.
using PairProbeHook =
    std::function<void(int from, int to, double delta,
                       const EnergyProfile& probe)>;

/// `maxLoads` optionally caps each recipient's load (seconds): the per-
/// machine energy caps translated to time, min'd with the horizon. Null
/// means horizon-only, the historical behaviour.
std::optional<PairMove> bestPairMove(const Instance& inst,
                                     const ProfileEvaluator& evaluator,
                                     const EnergyProfile& loads,
                                     double baseAccuracy,
                                     ThreadPool* pool = nullptr,
                                     const PairProbeHook* probeHook = nullptr,
                                     const EnergyProfile* maxLoads = nullptr);

}  // namespace dsct
