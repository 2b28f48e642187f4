// Test-only reference LP engine: the original dense two-phase tableau,
// kept verbatim as the oracle that tests/solver_lp_differential_test.cpp
// compares the sparse revised simplex (src/solver/simplex.cpp) against. The library solves every LP with the revised engine; this copy
// has no caller outside the tests. It ignores warm bases and fills no
// LpCounters.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "solver/model.h"
#include "solver/simplex.h"
#include "util/check.h"
#include "util/timer.h"

namespace dsct::lp::reference {

constexpr double kFeasTol = 1e-7;
/// Reduced-cost tolerance of pricing (the revised engine's kPricingTol).
constexpr double kPricingTol = 1e-9;

/// Mapping of one model variable into the non-negative tilde space:
/// x = shift + Σ sign_c · x̃_c over the variable's columns.
struct VarMap {
  double shift = 0.0;
  // Column indices and signs; at most two entries (free-variable split).
  int col0 = -1;
  double sign0 = 1.0;
  int col1 = -1;
  double sign1 = -1.0;
};

/// The dense tableau. Row-major, each row has `cols + 1` entries, the last
/// being the RHS. A separate reduced-cost row is maintained incrementally.
class Tableau {
 public:
  Tableau(int rows, int cols)
      : rows_(rows), cols_(cols), stride_(cols + 1),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols + 1), 0.0),
        cost_(static_cast<std::size_t>(cols + 1), 0.0),
        basis_(static_cast<std::size_t>(rows), -1) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double* row(int i) { return data_.data() + static_cast<std::size_t>(i) * stride_; }
  const double* row(int i) const {
    return data_.data() + static_cast<std::size_t>(i) * stride_;
  }
  double rhs(int i) const { return row(i)[cols_]; }
  double& rhsRef(int i) { return row(i)[cols_]; }

  double* cost() { return cost_.data(); }
  const double* cost() const { return cost_.data(); }

  int basis(int i) const { return basis_[static_cast<std::size_t>(i)]; }
  void setBasis(int i, int col) { basis_[static_cast<std::size_t>(i)] = col; }

  /// Gauss-Jordan pivot on (pivotRow, pivotCol); also updates the cost row.
  void pivot(int pivotRow, int pivotCol) {
    double* prow = row(pivotRow);
    const double pivotValue = prow[pivotCol];
    DSCT_DCHECK(std::fabs(pivotValue) > 1e-13);
    const double inv = 1.0 / pivotValue;
    for (int k = 0; k <= cols_; ++k) prow[k] *= inv;
    prow[pivotCol] = 1.0;  // kill round-off on the pivot element
    for (int i = 0; i < rows_; ++i) {
      if (i == pivotRow) continue;
      double* r = row(i);
      const double factor = r[pivotCol];
      if (factor == 0.0) continue;
      for (int k = 0; k <= cols_; ++k) r[k] -= factor * prow[k];
      r[pivotCol] = 0.0;
    }
    const double cfactor = cost_[static_cast<std::size_t>(pivotCol)];
    if (cfactor != 0.0) {
      for (int k = 0; k <= cols_; ++k) {
        cost_[static_cast<std::size_t>(k)] -= cfactor * prow[k];
      }
      cost_[static_cast<std::size_t>(pivotCol)] = 0.0;
    }
    setBasis(pivotRow, pivotCol);
  }

 private:
  int rows_;
  int cols_;
  int stride_;
  std::vector<double> data_;
  std::vector<double> cost_;
  std::vector<int> basis_;
};

struct PhaseOutcome {
  SolveStatus status = SolveStatus::kOptimal;
  bool cancelled = false;
  long iterations = 0;
};

/// Run the simplex loop to optimality of the current cost row.
/// `allowed[j]` gates which columns may enter the basis.
inline PhaseOutcome runSimplex(Tableau& t, const std::vector<char>& allowed,
                               const LpOptions& options, const TimeLimit& deadline,
                               long maxIterations, long blandThreshold) {
  PhaseOutcome out;
  const int cols = t.cols();
  const int rows = t.rows();
  const double tol = kPricingTol;
  for (;;) {
    if (out.iterations >= maxIterations) {
      out.status = SolveStatus::kIterationLimit;
      return out;
    }
    if ((out.iterations & 63) == 0) {
      if (stopRequested(options.cancel)) {
        out.status = SolveStatus::kTimeLimit;
        out.cancelled = true;
        return out;
      }
      if (deadline.expired()) {
        out.status = SolveStatus::kTimeLimit;
        return out;
      }
    }
    const bool bland = out.iterations >= blandThreshold;
    // --- pricing: choose entering column ---
    int entering = -1;
    double best = -tol;
    const double* cost = t.cost();
    for (int j = 0; j < cols; ++j) {
      if (!allowed[static_cast<std::size_t>(j)]) continue;
      const double dj = cost[j];
      if (dj < best) {
        entering = j;
        if (bland) break;  // Bland: first eligible index
        best = dj;
      }
    }
    if (entering < 0) {
      out.status = SolveStatus::kOptimal;
      return out;
    }
    // --- ratio test: choose leaving row ---
    int leaving = -1;
    double bestRatio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < rows; ++i) {
      const double aij = t.row(i)[entering];
      if (aij <= tol) continue;
      const double ratio = std::max(0.0, t.rhs(i)) / aij;
      if (ratio < bestRatio - 1e-12 ||
          (ratio < bestRatio + 1e-12 && leaving >= 0 &&
           t.basis(i) < t.basis(leaving))) {
        bestRatio = ratio;
        leaving = i;
      }
    }
    if (leaving < 0) {
      out.status = SolveStatus::kUnbounded;
      return out;
    }
    t.pivot(leaving, entering);
    ++out.iterations;
  }
}

/// The dense two-phase tableau engine over explicit variable bounds.
inline LpResult solveLpDense(const Model& model, std::span<const double> lower,
                             std::span<const double> upper,
                             const LpOptions& options) {
  Stopwatch watch;
  const TimeLimit deadline(options.timeLimitSeconds);
  const int nvars = model.numVariables();
  DSCT_CHECK(static_cast<int>(lower.size()) == nvars);
  DSCT_CHECK(static_cast<int>(upper.size()) == nvars);

  LpResult result;
  result.x.assign(static_cast<std::size_t>(nvars), 0.0);

  // ---- 1. Variable substitution into tilde space ----
  std::vector<VarMap> maps(static_cast<std::size_t>(nvars));
  std::vector<double> boundRange;  // finite range per ranged column
  std::vector<int> rangedCols;     // tilde columns with a finite upper bound
  int structCols = 0;
  for (int j = 0; j < nvars; ++j) {
    const double lo = lower[static_cast<std::size_t>(j)];
    const double hi = upper[static_cast<std::size_t>(j)];
    if (lo > hi) {
      result.status = SolveStatus::kInfeasible;
      result.solveSeconds = watch.elapsedSeconds();
      return result;
    }
    VarMap& vm = maps[static_cast<std::size_t>(j)];
    if (lo == hi) {
      vm.shift = lo;  // fixed: no column
    } else if (std::isinf(lo) && std::isinf(hi)) {
      vm.shift = 0.0;  // free: split x = x+ − x−
      vm.col0 = structCols++;
      vm.sign0 = 1.0;
      vm.col1 = structCols++;
      vm.sign1 = -1.0;
    } else if (std::isinf(lo)) {
      vm.shift = hi;  // x = hi − x̃
      vm.col0 = structCols++;
      vm.sign0 = -1.0;
    } else {
      vm.shift = lo;  // x = lo + x̃
      vm.col0 = structCols++;
      vm.sign0 = 1.0;
      if (!std::isinf(hi)) {
        rangedCols.push_back(vm.col0);
        boundRange.push_back(hi - lo);
      }
    }
  }

  // ---- 2. Assemble rows in tilde space ----
  struct Row {
    std::vector<std::pair<int, double>> coeffs;  // (tilde col, coeff)
    Sense sense;
    double rhs;
    int origIndex;     ///< model constraint index; −1 for bound rows
    double scale = 1;  ///< equilibration factor applied to coeffs and rhs
  };
  std::vector<Row> rows;
  rows.reserve(static_cast<std::size_t>(model.numConstraints()) +
               rangedCols.size());
  for (int ci = 0; ci < model.numConstraints(); ++ci) {
    const Constraint& c = model.constraint(ci);
    Row row;
    row.sense = c.sense;
    row.rhs = c.rhs;
    row.origIndex = ci;
    for (const auto& [var, coeff] : c.coeffs) {
      if (coeff == 0.0) continue;
      const VarMap& vm = maps[static_cast<std::size_t>(var)];
      row.rhs -= coeff * vm.shift;
      if (vm.col0 >= 0) row.coeffs.emplace_back(vm.col0, coeff * vm.sign0);
      if (vm.col1 >= 0) row.coeffs.emplace_back(vm.col1, coeff * vm.sign1);
    }
    if (row.coeffs.empty()) {
      // Constant row: check consistency and drop.
      const bool ok = (row.sense == Sense::kLe && row.rhs >= -kFeasTol) ||
                      (row.sense == Sense::kGe && row.rhs <= kFeasTol) ||
                      (row.sense == Sense::kEq && std::fabs(row.rhs) <= kFeasTol);
      if (!ok) {
        result.status = SolveStatus::kInfeasible;
        result.solveSeconds = watch.elapsedSeconds();
        return result;
      }
      continue;
    }
    // Row equilibration: normalise the largest coefficient magnitude to 1
    // so badly scaled models (TFLOP vs Joule magnitudes) stay well
    // conditioned; duals are un-scaled on extraction.
    double maxAbs = 0.0;
    for (const auto& [col, coeff] : row.coeffs) {
      maxAbs = std::max(maxAbs, std::fabs(coeff));
    }
    if (maxAbs > 0.0 && (maxAbs > 4.0 || maxAbs < 0.25)) {
      row.scale = 1.0 / maxAbs;
      for (auto& [col, coeff] : row.coeffs) coeff *= row.scale;
      row.rhs *= row.scale;
    }
    rows.push_back(std::move(row));
  }
  for (std::size_t k = 0; k < rangedCols.size(); ++k) {
    rows.push_back(Row{{{rangedCols[k], 1.0}}, Sense::kLe, boundRange[k], -1});
  }

  const int m = static_cast<int>(rows.size());

  // ---- 3. Slack / artificial layout ----
  // Column layout: [0, structCols) structural, then one slack per non-EQ row,
  // then artificials as needed.
  int numSlacks = 0;
  for (const Row& r : rows) {
    if (r.sense != Sense::kEq) ++numSlacks;
  }
  // Decide per-row slack coefficient after normalising rhs >= 0.
  struct RowMeta {
    int slackCol = -1;
    double slackCoeff = 0.0;
    bool negated = false;
    int artCol = -1;
  };
  std::vector<RowMeta> meta(static_cast<std::size_t>(m));
  {
    int slack = structCols;
    for (int i = 0; i < m; ++i) {
      Row& r = rows[static_cast<std::size_t>(i)];
      RowMeta& mt = meta[static_cast<std::size_t>(i)];
      if (r.sense != Sense::kEq) {
        mt.slackCol = slack++;
        mt.slackCoeff = (r.sense == Sense::kLe) ? 1.0 : -1.0;
      }
      if (r.rhs < 0.0) {
        mt.negated = true;
        r.rhs = -r.rhs;
        for (auto& [col, coeff] : r.coeffs) coeff = -coeff;
        mt.slackCoeff = -mt.slackCoeff;
      }
    }
  }
  int numArts = 0;
  for (int i = 0; i < m; ++i) {
    if (meta[static_cast<std::size_t>(i)].slackCoeff != 1.0) {
      meta[static_cast<std::size_t>(i)].artCol =
          structCols + numSlacks + numArts++;
    }
  }
  const int cols = structCols + numSlacks + numArts;

  // ---- 4. Fill tableau ----
  Tableau t(m, cols);
  for (int i = 0; i < m; ++i) {
    const Row& r = rows[static_cast<std::size_t>(i)];
    const RowMeta& mt = meta[static_cast<std::size_t>(i)];
    double* trow = t.row(i);
    for (const auto& [col, coeff] : r.coeffs) trow[col] += coeff;
    if (mt.slackCol >= 0) trow[mt.slackCol] = mt.slackCoeff;
    if (mt.artCol >= 0) trow[mt.artCol] = 1.0;
    trow[cols] = r.rhs;
    t.setBasis(i, mt.artCol >= 0 ? mt.artCol : mt.slackCol);
  }

  const auto isArtificial = [&](int col) {
    return col >= structCols + numSlacks;
  };

  long maxIterations = options.maxIterations;
  if (maxIterations <= 0) {
    maxIterations = 200L * (m + cols) + 20000L;
  }
  const long blandThreshold = std::max<long>(2000, 20L * (m + cols));
  long iterationsUsed = 0;

  std::vector<char> allowed(static_cast<std::size_t>(cols), 1);

  // ---- 5. Phase 1 ----
  if (numArts > 0) {
    double* cost = t.cost();
    std::fill(cost, cost + cols + 1, 0.0);
    for (int j = structCols + numSlacks; j < cols; ++j) cost[j] = 1.0;
    for (int i = 0; i < m; ++i) {
      if (!isArtificial(t.basis(i))) continue;
      const double* trow = t.row(i);
      for (int k = 0; k <= cols; ++k) cost[k] -= trow[k];
    }
    const PhaseOutcome p1 =
        runSimplex(t, allowed, options, deadline, maxIterations, blandThreshold);
    iterationsUsed += p1.iterations;
    if (p1.status != SolveStatus::kOptimal) {
      result.status = p1.status;
      result.cancelled = p1.cancelled;
      result.iterations = iterationsUsed;
      result.solveSeconds = watch.elapsedSeconds();
      return result;
    }
    double phase1Obj = 0.0;
    for (int i = 0; i < m; ++i) {
      if (isArtificial(t.basis(i))) phase1Obj += t.rhs(i);
    }
    if (phase1Obj > kFeasTol) {
      result.status = SolveStatus::kInfeasible;
      result.iterations = iterationsUsed;
      result.solveSeconds = watch.elapsedSeconds();
      return result;
    }
    // Drive basic artificials (at zero) out of the basis where possible.
    for (int i = 0; i < m; ++i) {
      if (!isArtificial(t.basis(i))) continue;
      const double* trow = t.row(i);
      int enter = -1;
      for (int j = 0; j < structCols + numSlacks; ++j) {
        if (std::fabs(trow[j]) > 1e-9) {
          enter = j;
          break;
        }
      }
      if (enter >= 0) t.pivot(i, enter);
      // Otherwise the row is redundant (all-zero in non-artificial columns);
      // it stays inert under further pivots.
    }
    for (int j = structCols + numSlacks; j < cols; ++j) {
      allowed[static_cast<std::size_t>(j)] = 0;
    }
  }

  // ---- 6. Phase 2 ----
  {
    // Tilde-space objective: minimise; maximisation negates coefficients.
    std::vector<double> ctilde(static_cast<std::size_t>(cols), 0.0);
    const double dir = model.maximize() ? -1.0 : 1.0;
    for (int j = 0; j < nvars; ++j) {
      const double cj = dir * model.variable(j).objective;
      if (cj == 0.0) continue;
      const VarMap& vm = maps[static_cast<std::size_t>(j)];
      if (vm.col0 >= 0) ctilde[static_cast<std::size_t>(vm.col0)] += cj * vm.sign0;
      if (vm.col1 >= 0) ctilde[static_cast<std::size_t>(vm.col1)] += cj * vm.sign1;
    }
    double* cost = t.cost();
    for (int k = 0; k < cols; ++k) cost[k] = (k < cols) ? ctilde[static_cast<std::size_t>(k)] : 0.0;
    cost[cols] = 0.0;
    // Reduced costs: c_j − c_B^T B^{-1} A_j.
    for (int i = 0; i < m; ++i) {
      const int b = t.basis(i);
      const double cb = (b >= 0 && b < cols) ? ctilde[static_cast<std::size_t>(b)] : 0.0;
      if (cb == 0.0) continue;
      const double* trow = t.row(i);
      for (int k = 0; k <= cols; ++k) cost[k] -= cb * trow[k];
    }
    // Basic columns must have exactly-zero reduced cost.
    for (int i = 0; i < m; ++i) cost[t.basis(i)] = 0.0;

    const PhaseOutcome p2 = runSimplex(t, allowed, options, deadline,
                                       maxIterations - iterationsUsed,
                                       blandThreshold);
    iterationsUsed += p2.iterations;
    if (p2.status != SolveStatus::kOptimal) {
      result.status = p2.status;
      result.cancelled = p2.cancelled;
      result.iterations = iterationsUsed;
      result.solveSeconds = watch.elapsedSeconds();
      return result;
    }
  }

  // ---- 7. Recover dual values (shadow prices) ----
  // For row i with basis-inverse prices ŷ = c̃_B B^{-1}: the reduced cost of
  // the row's slack column is −σ_i·ŷ_i (σ = slack coefficient) and of its
  // artificial column is −ŷ_i. Negated rows and the maximisation sign flip
  // map ŷ back to d(objective)/d(rhs) in the model's own direction.
  {
    result.duals.assign(static_cast<std::size_t>(model.numConstraints()), 0.0);
    const double dirSign = model.maximize() ? -1.0 : 1.0;
    const double* cost = t.cost();
    for (int i = 0; i < m; ++i) {
      const int orig = rows[static_cast<std::size_t>(i)].origIndex;
      if (orig < 0) continue;
      const RowMeta& mt = meta[static_cast<std::size_t>(i)];
      const double yhat = (mt.artCol >= 0)
                              ? -cost[mt.artCol]
                              : -cost[mt.slackCol] / mt.slackCoeff;
      // Un-scale: the stored rhs is scale·b, so d/d(b) = scale · d/d(rhs).
      result.duals[static_cast<std::size_t>(orig)] =
          dirSign * (mt.negated ? -1.0 : 1.0) * yhat *
          rows[static_cast<std::size_t>(i)].scale;
    }
  }

  // ---- 8. Recover primal values ----
  std::vector<double> xtilde(static_cast<std::size_t>(cols), 0.0);
  for (int i = 0; i < m; ++i) {
    const int b = t.basis(i);
    if (b >= 0) xtilde[static_cast<std::size_t>(b)] = std::max(0.0, t.rhs(i));
  }
  for (int j = 0; j < nvars; ++j) {
    const VarMap& vm = maps[static_cast<std::size_t>(j)];
    double x = vm.shift;
    if (vm.col0 >= 0) x += vm.sign0 * xtilde[static_cast<std::size_t>(vm.col0)];
    if (vm.col1 >= 0) x += vm.sign1 * xtilde[static_cast<std::size_t>(vm.col1)];
    result.x[static_cast<std::size_t>(j)] = x;
  }
  result.status = SolveStatus::kOptimal;
  result.objective = model.objectiveValue(result.x);
  result.iterations = iterationsUsed;
  result.solveSeconds = watch.elapsedSeconds();
  return result;
}

/// Same, with the bounds the model declares.
inline LpResult solveLpDense(const Model& model,
                             const LpOptions& options = {}) {
  std::vector<double> lower(static_cast<std::size_t>(model.numVariables()));
  std::vector<double> upper(static_cast<std::size_t>(model.numVariables()));
  for (int j = 0; j < model.numVariables(); ++j) {
    lower[static_cast<std::size_t>(j)] = model.variable(j).lower;
    upper[static_cast<std::size_t>(j)] = model.variable(j).upper;
  }
  return solveLpDense(model, lower, upper, options);
}

}  // namespace dsct::lp::reference
