// Unified solver API: one interface from the algorithms to the serving
// loop, the experiment harness, the benches, and the CLI.
//
// Every algorithm in the repo (Algorithm 5 APPROX, Algorithm 4 FR-OPT, the
// EDF baselines, the knapsack-optimal level baseline, and the MIP/LP paths)
// is exposed as a `Solver`: `name()` is the registry key callers dispatch
// on, `capabilities()` says what the solver produces and which shared
// resources it honours, and `solve()` returns a `SolveOutcome` that
// normalizes the previously incompatible result structs (ApproxResult,
// FrOptResult, BaselineResult, MipSolveSummary, LpResult).
//
// A `SolveContext` carries the per-solve inputs every caller shares, one
// field each: the worker pool, the MIP and LP time limits, the cancel token,
// the per-machine energy caps, the LP warm-start slot and the shard price.
// The registry builds each algorithm's own options (FrOptOptions,
// lp::MipOptions, lp::LpOptions) from it, so passing the same context to
// every solve is what makes an experiment run exercise the exact
// configuration the serving loop does.
//
// Dispatching through this API is numerically invisible: a registry solve
// calls the same underlying function with the same options, so outcomes are
// bit-identical to direct `solveApprox`/`solveFrOpt`/... calls
// (tests/core_solver_registry_test.cpp pins this).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/energy_profile.h"
#include "sched/fr_opt.h"
#include "sched/schedule.h"
#include "sched/types.h"
#include "solver/simplex.h"
#include "util/cancel.h"

namespace dsct {

class ThreadPool;

/// How a solve ended.
enum class OutcomeStatus {
  kOk,         ///< ran to its natural completion
  kCancelled,  ///< stopped early at a cooperative poll point (deadline or
               ///< explicit cancel); any returned schedule is partial work
};

const char* toString(OutcomeStatus status);

/// What a solver produces and which SolveContext resources it honours.
struct SolverCapabilities {
  /// Produces an integral (one machine per task) schedule — required for
  /// execution on the simulated cluster and for the serving loop.
  bool integral = true;
  /// Produces a fractional schedule (the DSCT-EA-FR relaxation).
  bool fractional = false;
  /// Exact method (MIP / LP) rather than an approximation or heuristic.
  bool exact = false;
  /// Repeat solves of the same instance under the same context are
  /// bit-identical. False for wall-clock-limited searches (the MIP paths),
  /// whose incumbent depends on where the limit cuts the tree.
  bool deterministic = true;
  /// Honours SolveContext::lpWarm: the solver re-enters its LP from the
  /// basis saved by a structurally identical earlier solve (cross-epoch
  /// serving) and stores its final basis back into the slot. Warm starts
  /// change only the pivot path, never the reported optimum, so outcomes
  /// stay bit-identical with the slot absent (tests/solver_warm_start_test).
  bool usesLpWarmStart = false;
  /// Honours SolveContext::availability: the solver discounts machines by
  /// their per-machine energy caps (battery charge) instead of treating the
  /// global budget as the only energy constraint. Solvers without this flag
  /// still run under availability — the serving loop cuts over-assigned
  /// machines at execution time — but cannot avoid the exhaustion spill.
  bool availabilityAware = false;
};

/// Per-epoch availability hints for capability-gated solvers (DESIGN.md
/// §15): machineEnergyCaps[r] is the stored energy (J) of the instance's
/// machine r this epoch; empty means no per-machine limits.
struct AvailabilityHints {
  std::vector<double> machineEnergyCaps;
};

/// Cross-solve LP warm-start slot: the final basis of the last optimal LP a
/// solver ran, tagged with the structural fingerprint of the model it came
/// from. Owned by the caller (the serving loop keeps one per run); a solver
/// reuses the basis only when the fingerprint matches the model it just
/// built, so bound/RHS drift reuses the basis and any structural change
/// falls back to a cold start. Not synchronised — must not be shared by
/// concurrent solves (the serving loop has at most one solve in flight).
struct LpWarmStartSlot {
  std::uint64_t structure = 0;
  lp::LpBasis basis;
};

/// Shared per-call configuration, threaded through every dispatch layer
/// instead of each one re-plumbing options ad hoc. Each input has exactly
/// one field; the registry maps them onto the algorithms' own options.
struct SolveContext {
  /// Borrowed worker pool: approx / fr-opt fan their independent profile
  /// evaluations out on it, and the shard coordinator its cell solves. Null
  /// runs serially; results are bit-identical either way.
  ThreadPool* pool = nullptr;
  /// Wall-clock limit (s) of the MIP solvers' branch and bound; <= 0 means
  /// unlimited.
  double mipTimeLimitSeconds = -1.0;
  /// Wall-clock limit (s) of the fr-lp simplex; <= 0 means unlimited.
  double lpTimeLimitSeconds = -1.0;
  /// Cooperative cancellation/deadline token, polled by every registered
  /// solver at its iteration boundaries. Null means "never cancel". The
  /// token must outlive the solve call.
  const CancelToken* cancel = nullptr;
  /// Per-machine energy caps for availability-aware solvers; null means
  /// none. Only solvers whose capabilities declare `availabilityAware`
  /// read this. Must outlive the solve call (same rule as `cancel`).
  const AvailabilityHints* availability = nullptr;
  /// Cross-solve LP warm-start slot; null disables warm starts. Only
  /// solvers whose capabilities declare `usesLpWarmStart` read/write it.
  /// Must outlive the solve call and must not be shared by concurrent
  /// solves (same rules as `cancel`).
  LpWarmStartSlot* lpWarm = nullptr;
  /// Lagrangian energy price λ (accuracy per Joule) at which the shard
  /// coordinator funded this cell solve (DESIGN.md §18); -1 (the default)
  /// for unpriced solves, top-up re-solves included. An annotation only: no
  /// solver reads it, because a cell's budget never exceeds its demand at λ.
  double energyPrice = -1.0;
};

/// Normalized result of any solver: schedule(s), objective, energy, wall
/// time, and the FR-OPT work/cache/slack telemetry (zeroed when the solver
/// has none).
struct SolveOutcome {
  std::string solver;  ///< registry name of the producing solver

  /// Integral schedule (absent for fractional-only solvers, and for exact
  /// solvers that proved nothing within their limits).
  std::optional<IntegralSchedule> schedule;
  /// Fractional schedule (the relaxation used for rounding, or the solver's
  /// primary output for fractional-only solvers).
  std::optional<FractionalSchedule> fractional;

  double totalAccuracy = 0.0;  ///< SOL of the returned schedule
  double energy = 0.0;         ///< Joules consumed by the returned schedule
  /// Proven bound on the optimum: the fractional OPT for approx, the
  /// branch-and-bound bound for the MIPs; 0 when the solver proves none.
  double upperBound = 0.0;
  /// The additive approximation bound G (approx only; 0 otherwise).
  double guaranteeG = 0.0;
  int scheduledTasks = 0;  ///< tasks receiving > 0 work
  int droppedTasks = 0;
  /// Realised per-machine loads (seconds): the refined profile for
  /// fractional solvers, the timeline loads for integral ones.
  EnergyProfile machineLoads;
  double wallSeconds = 0.0;  ///< stamped by Solver::solve

  /// FR-OPT work counters incl. slack-engine traffic; all zero for solvers
  /// without that telemetry.
  FrOptCounters counters;

  /// LP work/warm-start telemetry summed over every LP the solve ran
  /// (node LPs for the MIP paths); all zero for solvers without an LP.
  lp::LpCounters lpCounters;

  /// How the solve ended. kCancelled only when the solver actually
  /// returned early from a poll point — a solve that completes just before
  /// its deadline stays kOk even if the token expires afterwards.
  OutcomeStatus status = OutcomeStatus::kOk;

  /// Did the solver produce any schedule at all?
  bool solved() const { return schedule.has_value() || fractional.has_value(); }
  /// Was the solve stopped early by its CancelToken?
  bool cancelled() const { return status == OutcomeStatus::kCancelled; }
};

/// The unified solver interface. Implementations are stateless (all mutable
/// state lives in the SolveContext resources), so one registered instance
/// may be solved from many threads concurrently.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry key (stable, lower-case, e.g. "approx", "edf3", "mip-warm").
  virtual const std::string& name() const = 0;
  /// Paper-style label for tables and logs (e.g. "DSCT-EA-Approx").
  virtual const std::string& displayName() const = 0;
  virtual SolverCapabilities capabilities() const = 0;

  /// Solve `inst` under `context`; stamps SolveOutcome::solver/wallSeconds.
  SolveOutcome solve(const Instance& inst, const SolveContext& context) const;

 protected:
  virtual SolveOutcome doSolve(const Instance& inst,
                               const SolveContext& context) const = 0;
};

// --- Outcome builders shared by the builtin solvers (exposed so external
// --- registrations can normalize their results the same way) --------------

/// Fill schedule-derived fields (accuracy, energy, counts, loads) from an
/// integral schedule.
void fillFromIntegral(const Instance& inst, SolveOutcome& outcome);

/// Fill schedule-derived fields from the outcome's fractional schedule.
void fillFromFractional(const Instance& inst, SolveOutcome& outcome);

}  // namespace dsct
