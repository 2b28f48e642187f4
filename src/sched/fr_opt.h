// Algorithm 4 of the paper: DSCT-EA-FR-OPT — the optimal solution of the
// fractional relaxation: ComputeNaiveSolution, one RefineProfile pass, then
// a cutting-plane search over the machine loads that stops on a certificate
// of optimality (DESIGN.md §25).
#pragma once

#include <algorithm>
#include <vector>

#include "sched/energy_profile.h"
#include "sched/refine_profile.h"
#include "sched/schedule.h"
#include "sched/types.h"

namespace dsct {

/// Per-solve observability: how much work the refine pass and the profile
/// search did and where the wall time went (rendered by
/// bench/micro_algorithms and bench/table1_fr_times).
struct FrOptCounters {
  long long evaluations = 0;       ///< fused profile evaluations (one per cut)
  long long scheduleSolves = 0;    ///< full n×m schedule materialisations
  int outerRounds = 0;             ///< refine rounds executed (0 or 1)
  double refineSeconds = 0.0;      ///< wall time in RefineProfile + its plan
  double totalSeconds = 0.0;       ///< whole solve

  // The certified cutting-plane search (DESIGN.md §25).
  long long searchIterations = 0;  ///< master solves that did not certify
  long long masterLpSolves = 0;    ///< master LP solves, the certifying one too
  int peakCuts = 0;                ///< most cuts one master LP held
  int searchCapHits = 0;           ///< searches stopped uncertified
  double searchSeconds = 0.0;      ///< wall time in the search

  // RefineProfile's incremental slack engine, summed over the refine calls
  // made.
  long long slackQueries = 0;
  long long slackHits = 0;          ///< served from the (task, machine) memo
  long long slackRebuilds = 0;      ///< per-machine column recomputations
  long long slackInvalidations = 0; ///< machine version bumps

  /// Always 0; only perfbench reads it.
  long long cacheHits = 0;
  /// Always 0; only perfbench reads it.
  long long directionLpSolves = 0;
  /// Always 0; only perfbench reads it.
  int pairMoves = 0;
  /// Always 0; only perfbench reads it.
  int directionSteps = 0;
  /// Always 0; only perfbench reads it.
  double expandSeconds = 0.0;
  /// Always 0; only perfbench reads it.
  double pairSeconds = 0.0;
  /// Always 0; only perfbench reads it.
  double directionSeconds = 0.0;
  /// Always 0; only perfbench reads it.
  long long crossHits = 0;
  /// Always 0; only perfbench reads it.
  long long crossMisses = 0;

  /// Folds another solve's counters in: work and time add up, and the
  /// peak bundle is the larger of the two.
  void add(const FrOptCounters& other) {
    evaluations += other.evaluations;
    scheduleSolves += other.scheduleSolves;
    outerRounds += other.outerRounds;
    refineSeconds += other.refineSeconds;
    totalSeconds += other.totalSeconds;
    searchIterations += other.searchIterations;
    masterLpSolves += other.masterLpSolves;
    peakCuts = std::max(peakCuts, other.peakCuts);
    searchCapHits += other.searchCapHits;
    searchSeconds += other.searchSeconds;
    slackQueries += other.slackQueries;
    slackHits += other.slackHits;
    slackRebuilds += other.slackRebuilds;
    slackInvalidations += other.slackInvalidations;
  }
};

struct FrOptOptions {
  /// Cooperative stop token, polled before the refine pass and once per
  /// search iteration (and forwarded to RefineProfile's round loop, which
  /// otherwise runs with the RefineOptions defaults). On early exit the
  /// incumbent schedule is returned with `cancelled` set — it is feasible
  /// but may be suboptimal.
  const CancelToken* cancel = nullptr;
  /// Optional per-machine energy caps (J, indexed like the instance's
  /// machines): the availability layer's battery charges (DESIGN.md §15).
  /// A cap is one more bound of the profile search — machine r's load
  /// never exceeds cap_r / P_r seconds, in the naive start, RefineProfile's
  /// grow side and the search's master LP. Null means uncapped and is
  /// bit-identical to a build without this field; otherwise the vector must
  /// hold one cap per machine (any other length is a CheckError naming both
  /// sizes).
  const std::vector<double>* machineEnergyCaps = nullptr;
};

struct FrOptResult {
  FractionalSchedule schedule;
  EnergyProfile naiveProfile;    ///< profile before refinement
  EnergyProfile refinedProfile;  ///< realised machine loads of `schedule`
  RefineStats refineStats;
  FrOptCounters counters;
  double totalAccuracy = 0.0;
  /// The search's proven bound on the fractional optimum: the least master
  /// LP optimum θ* (Σ a_max before any master solve). A certified solve has
  /// upperBound − V(best) <= 1e-9·max(1, |upperBound|) (DESIGN.md §25).
  double upperBound = 0.0;
  double energy = 0.0;  ///< Joules actually consumed
  /// True when the solve stopped early at a cancel-token poll point.
  bool cancelled = false;
};

FrOptResult solveFrOpt(const Instance& inst, const FrOptOptions& options = {});

}  // namespace dsct
