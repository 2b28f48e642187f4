// Linear programming: solveLp / solveLpWithBounds.
//
// The engine is a bounded-variable revised simplex with CSC sparse column
// storage, a product-form (eta-file) basis inverse with periodic
// refactorisation, Dantzig + partial pricing, and explicit lower/upper
// variable bounds — box constraints like the relaxation's 0 ≤ z ≤ 1 are
// handled as bounds, not rows. It supports warm starts from a saved LpBasis
// (cross-epoch serving, branch-and-bound node inheritance), handles
// arbitrary bounds (finite/infinite/free/fixed), all row senses and row
// equilibration for badly scaled models, and avoids cycling by switching
// from Dantzig pricing to Bland's rule after a pivot-count threshold. The
// dense two-phase tableau it replaced survives only as the test oracle
// tests/dense_tableau_reference.h. This layer is the stand-in for the
// paper's commercial LP/MIP solver; its role in the reproduction is
// correctness at small-to-medium sizes plus honest time-limit behaviour at
// large sizes (Fig. 4, Table 1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "solver/model.h"
#include "util/cancel.h"

namespace dsct::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
};

const char* toString(SolveStatus status);

/// Per-column basis status in the engine's column space: the model's
/// structural variables first, then one logical (slack/surplus) column per
/// constraint row.
enum class BasisStatus : std::uint8_t {
  kAtLower = 0,  ///< nonbasic at its lower bound (also: fixed columns)
  kAtUpper = 1,  ///< nonbasic at its upper bound
  kBasic = 2,
  kFree = 3,  ///< nonbasic free column, held at zero
};

/// Snapshot of a revised-simplex basis: one status per column over
/// numVariables structural + numConstraints logical columns. Returned on
/// every optimal revised solve and accepted back through
/// LpOptions::warmBasis; restoring it re-enters phase 2 directly when the
/// basis is still primal feasible for the (possibly drifted) RHS/bounds.
struct LpBasis {
  std::vector<BasisStatus> status;
  int numRows = 0;  ///< constraint count the snapshot was taken against

  bool empty() const { return status.empty(); }
  /// Dimension check: does this snapshot fit a model with the given shape?
  bool compatible(int numVariables, int numConstraints) const {
    return numRows == numConstraints &&
           static_cast<int>(status.size()) == numVariables + numConstraints;
  }
  friend bool operator==(const LpBasis&, const LpBasis&) = default;
};

/// Work and warm-start telemetry of one (or, summed, many) LP solves.
struct LpCounters {
  long pivots = 0;        ///< basis-changing pivots, both phases
  long phase1Pivots = 0;  ///< subset of `pivots` spent restoring feasibility
  long boundFlips = 0;    ///< nonbasic bound-to-bound moves (no basis change)
  long refactorizations = 0;  ///< eta-file rebuilds (periodic + recovery)
  long warmStartsAttempted = 0;  ///< solves entered with a warm basis
  long warmStartsUsed = 0;       ///< warm basis primal feasible: phase 1 skipped
  long warmStartsRepaired = 0;   ///< warm basis installed but phase 1 still ran
  long warmStartsRejected = 0;   ///< warm basis unusable (shape/fingerprint)

  void add(const LpCounters& other) {
    pivots += other.pivots;
    phase1Pivots += other.phase1Pivots;
    boundFlips += other.boundFlips;
    refactorizations += other.refactorizations;
    warmStartsAttempted += other.warmStartsAttempted;
    warmStartsUsed += other.warmStartsUsed;
    warmStartsRepaired += other.warmStartsRepaired;
    warmStartsRejected += other.warmStartsRejected;
  }
};

struct LpOptions {
  double timeLimitSeconds = -1.0;  ///< <= 0 means unlimited
  long maxIterations = -1;         ///< <= 0 means automatic (scales with size)
  /// Cooperative stop token, polled alongside the time limit every 64
  /// pivots (and between columns inside a refactorisation). A stop reads as
  /// kTimeLimit with `cancelled` set on the result.
  const dsct::CancelToken* cancel = nullptr;
  /// Optional starting basis. Must outlive the solve. A snapshot that does
  /// not fit the model's shape is rejected (counted in
  /// LpCounters::warmStartsRejected) and the solve falls back to the cold
  /// all-logical start — a warm basis can never change the reported optimum,
  /// only the pivot path to it.
  const LpBasis* warmBasis = nullptr;
};

struct LpResult {
  SolveStatus status = SolveStatus::kInfeasible;
  /// True when the solve stopped at a cancel-token poll (status is then
  /// kTimeLimit — the token subsumes the wall-clock limit).
  bool cancelled = false;
  double objective = 0.0;      ///< c^T x in the model's direction
  std::vector<double> x;       ///< primal values (model variable order)
  /// Shadow prices, one per model constraint: d(objective)/d(rhs_i) in the
  /// model's direction (maximisation: marginal objective gain of relaxing
  /// the row). Zero for non-binding rows (complementary slackness). Only
  /// populated on kOptimal.
  std::vector<double> duals;
  long iterations = 0;
  double solveSeconds = 0.0;
  /// Final basis snapshot, populated on kOptimal. Feed back via
  /// LpOptions::warmBasis.
  LpBasis basis;
  /// Pivot/refactorisation/warm-start telemetry.
  LpCounters counters;
};

/// Solve the LP relaxation of `model` (integrality is ignored).
LpResult solveLp(const Model& model, const LpOptions& options = {});

/// Same, with per-variable bound overrides (used by branch-and-bound to fix
/// or tighten variables without copying the model).
LpResult solveLpWithBounds(const Model& model, std::span<const double> lower,
                           std::span<const double> upper,
                           const LpOptions& options = {});

}  // namespace dsct::lp
