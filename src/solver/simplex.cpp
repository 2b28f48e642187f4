// solveLp / solveLpWithBounds: the sparse bounded-variable revised simplex
// (DESIGN.md §17).
//
// Column space: the model's n structural variables first, then one logical
// (slack/surplus) column per row, so every row reads  A·x + s = b  with the
// row sense encoded in the logical's bounds (Le: s ∈ [0,∞), Ge: s ∈ (−∞,0],
// Eq: s ∈ [0,0]). Structural columns are stored CSC after row equilibration;
// logical columns are implicit unit vectors. Variable bounds are handled
// natively: a nonbasic column sits at one of its bounds (or at zero when
// free), and a step that hits the entering column's opposite bound is a
// bound flip — no basis change, no eta.
//
// The basis inverse is a product-form eta file rebuilt by periodic
// refactorisation (re-pivoting the basic columns fewest-nonzeros-first with
// partial pivoting; a dependent column is repaired by swapping in the
// logical of an unpivoted row). Phase 1 is the composite, artificial-free
// variant: starting from any basis it minimises the total bound violation of
// the basic variables with piecewise costs (−1 below lower, +1 above upper)
// and a first-breakpoint ratio test, which is what lets a warm-started epoch
// skip phase 1 entirely whenever the saved basis is still primal feasible.
//
// After phase 2 claims optimality the engine refactorises the final basis
// and recomputes primal values and duals from scratch, so the reported
// solution is a function of the final basis alone — not of the pivot path
// that reached it. That is what makes "warm starts on" and "warm starts off"
// bit-identical whenever both land on the same optimal basis
// (tests/solver_warm_start_test.cpp pins this).
#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.h"
#include "util/timer.h"

namespace dsct::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Primal feasibility tolerance (matches the dense tableau's kFeasTol in
/// tests/dense_tableau_reference.h).
constexpr double kFeasTol = 1e-7;
/// Smallest |pivot| accepted when factorising a basic column.
constexpr double kFactorPivotTol = 1e-11;
/// |alpha_i| below this cannot block the ratio test.
constexpr double kRatioTol = 1e-9;
/// Reduced-cost tolerance of pricing; the optimality confirmation accepts
/// ten times it (matches the dense tableau's kPricingTol).
constexpr double kPricingTol = 1e-9;
/// The eta file is rebuilt every this many pivots.
constexpr int kRefactorInterval = 64;
/// Eta entries below this magnitude are dropped (sparsity vs exactness).
constexpr double kEtaDropTol = 1e-12;
/// Cancel/deadline poll cadence, in iterations (and refactor columns).
constexpr int kPollStride = 64;
/// Bounded rounds of the optimality-confirmation loop (refactorise, verify,
/// resume pivoting on numerical drift).
constexpr int kConfirmRounds = 3;

/// One product-form elementary transform: the pivot column d = B⁻¹·a_q at
/// pivot row `row`, split into the pivot value and the off-pivot nonzeros.
struct Eta {
  int row = 0;
  double pivot = 1.0;
  std::vector<int> idx;
  std::vector<double> val;
};

class RevisedSimplex {
 public:
  RevisedSimplex(const Model& model, std::span<const double> lower,
                 std::span<const double> upper, const LpOptions& options)
      : model_(model), varLower_(lower), varUpper_(upper), options_(options),
        deadline_(options.timeLimitSeconds) {}

  LpResult run();

 private:
  // --- setup -------------------------------------------------------------
  void build();
  void coldStatuses();
  bool installWarm(const LpBasis& warm);

  // --- basis inverse -----------------------------------------------------
  bool refactor();                // false only when cancelled mid-rebuild
  bool refactorAndRecompute();
  void resetToLogicalBasis();
  void recomputePrimal();
  void ftran(std::vector<double>& v) const;
  /// FTRAN that tracks the nonzero support of v; `supp` must already hold
  /// v's initial support, marked in mark_ with markEpoch_.
  void ftranTracked(std::vector<double>& v, std::vector<int>& supp);
  void btran(std::vector<double>& v) const;
  void loadColumn(int j, std::vector<double>& v, std::vector<int>& supp);
  void pushEta(int pivotRow, const std::vector<double>& v,
               const std::vector<int>& supp);
  void clearScratch(std::vector<double>& v, std::vector<int>& supp);

  // --- simplex loop ------------------------------------------------------
  SolveStatus runPhase(int phase);
  void computePhaseCosts(int phase);
  int priceEntering(int phase, bool bland);
  double reducedCost(int phase, int j) const;
  double maxInfeasibility() const;
  bool dualFeasible();

  // --- results -----------------------------------------------------------
  bool pollStop();
  LpResult finish(LpResult result);
  LpResult stoppedResult(SolveStatus status);
  LpResult optimalResult();

  const Model& model_;
  std::span<const double> varLower_;
  std::span<const double> varUpper_;
  const LpOptions& options_;
  const TimeLimit deadline_;
  Stopwatch watch_;

  int n_ = 0;  ///< structural columns
  int m_ = 0;  ///< rows (= logical columns)
  int N_ = 0;  ///< n_ + m_

  // CSC storage of the scaled structural columns.
  std::vector<int> colStart_;
  std::vector<int> rowIdx_;
  std::vector<double> colVal_;

  std::vector<double> cost_;      ///< internal minimisation costs, size N
  std::vector<double> lower_;     ///< column lower bounds, size N
  std::vector<double> upper_;     ///< column upper bounds, size N
  std::vector<double> rhs_;       ///< scaled right-hand sides, size m
  std::vector<double> rowScale_;  ///< equilibration factor per row

  std::vector<BasisStatus> status_;  ///< size N
  std::vector<double> value_;        ///< primal value per column, size N
  std::vector<int> basicVar_;        ///< column basic in row i, size m

  std::vector<Eta> etas_;
  std::size_t etasAtRefactor_ = 0;  ///< eta-file length after the last rebuild

  // Scratch (sized m): pivot column, its support, BTRAN prices, basic costs.
  std::vector<double> alpha_;
  std::vector<int> alphaSupp_;
  std::vector<int> mark_;
  int markEpoch_ = 0;
  std::vector<double> y_;
  std::vector<double> cb_;

  long iterations_ = 0;
  long maxIterations_ = 0;
  long blandThreshold_ = 0;
  int pricingCursor_ = 0;
  bool cancelledFlag_ = false;
  bool justRefactored_ = false;

  LpCounters counters_;
};

void RevisedSimplex::build() {
  n_ = model_.numVariables();
  m_ = model_.numConstraints();
  N_ = n_ + m_;

  lower_.assign(static_cast<std::size_t>(N_), 0.0);
  upper_.assign(static_cast<std::size_t>(N_), 0.0);
  cost_.assign(static_cast<std::size_t>(N_), 0.0);
  const double dir = model_.maximize() ? -1.0 : 1.0;
  for (int j = 0; j < n_; ++j) {
    lower_[static_cast<std::size_t>(j)] = varLower_[static_cast<std::size_t>(j)];
    upper_[static_cast<std::size_t>(j)] = varUpper_[static_cast<std::size_t>(j)];
    cost_[static_cast<std::size_t>(j)] = dir * model_.variable(j).objective;
  }
  for (int i = 0; i < m_; ++i) {
    const int s = n_ + i;
    switch (model_.constraint(i).sense) {
      case Sense::kLe:
        lower_[static_cast<std::size_t>(s)] = 0.0;
        upper_[static_cast<std::size_t>(s)] = kInf;
        break;
      case Sense::kGe:
        lower_[static_cast<std::size_t>(s)] = -kInf;
        upper_[static_cast<std::size_t>(s)] = 0.0;
        break;
      case Sense::kEq:
        lower_[static_cast<std::size_t>(s)] = 0.0;
        upper_[static_cast<std::size_t>(s)] = 0.0;
        break;
    }
  }

  // Column-major fill of the constraint matrix, merging duplicate (row, var)
  // entries by summation (the dense engine accumulates them the same way).
  std::vector<int> count(static_cast<std::size_t>(n_) + 1, 0);
  for (int i = 0; i < m_; ++i) {
    for (const auto& [var, coeff] : model_.constraint(i).coeffs) {
      if (coeff == 0.0) continue;
      ++count[static_cast<std::size_t>(var) + 1];
    }
  }
  colStart_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (int j = 0; j < n_; ++j) {
    colStart_[static_cast<std::size_t>(j) + 1] =
        colStart_[static_cast<std::size_t>(j)] +
        count[static_cast<std::size_t>(j) + 1];
  }
  const int nnz = colStart_[static_cast<std::size_t>(n_)];
  rowIdx_.assign(static_cast<std::size_t>(nnz), 0);
  colVal_.assign(static_cast<std::size_t>(nnz), 0.0);
  std::vector<int> cursor(colStart_.begin(), colStart_.end() - 1);
  for (int i = 0; i < m_; ++i) {
    for (const auto& [var, coeff] : model_.constraint(i).coeffs) {
      if (coeff == 0.0) continue;
      const int k = cursor[static_cast<std::size_t>(var)]++;
      rowIdx_[static_cast<std::size_t>(k)] = i;
      colVal_[static_cast<std::size_t>(k)] = coeff;
    }
  }
  // Per-column: sort by row, merge duplicates, drop exact zeros.
  {
    std::vector<std::pair<int, double>> entries;
    int write = 0;
    int readStart = 0;
    for (int j = 0; j < n_; ++j) {
      const int readEnd = colStart_[static_cast<std::size_t>(j) + 1];
      entries.clear();
      for (int k = readStart; k < readEnd; ++k) {
        entries.emplace_back(rowIdx_[static_cast<std::size_t>(k)],
                             colVal_[static_cast<std::size_t>(k)]);
      }
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      readStart = readEnd;
      colStart_[static_cast<std::size_t>(j)] = write;
      for (std::size_t k = 0; k < entries.size();) {
        int row = entries[k].first;
        double sum = 0.0;
        while (k < entries.size() && entries[k].first == row) {
          sum += entries[k].second;
          ++k;
        }
        if (sum == 0.0) continue;
        rowIdx_[static_cast<std::size_t>(write)] = row;
        colVal_[static_cast<std::size_t>(write)] = sum;
        ++write;
      }
    }
    colStart_[static_cast<std::size_t>(n_)] = write;
    rowIdx_.resize(static_cast<std::size_t>(write));
    colVal_.resize(static_cast<std::size_t>(write));
  }

  // Row equilibration, same policy as the dense engine: normalise the
  // largest coefficient magnitude towards 1 when it falls outside [0.25, 4];
  // duals are un-scaled on extraction.
  rowScale_.assign(static_cast<std::size_t>(m_), 1.0);
  {
    std::vector<double> maxAbs(static_cast<std::size_t>(m_), 0.0);
    for (std::size_t k = 0; k < colVal_.size(); ++k) {
      double& cur = maxAbs[static_cast<std::size_t>(rowIdx_[k])];
      cur = std::max(cur, std::fabs(colVal_[k]));
    }
    for (int i = 0; i < m_; ++i) {
      const double ma = maxAbs[static_cast<std::size_t>(i)];
      if (ma > 0.0 && (ma > 4.0 || ma < 0.25)) {
        rowScale_[static_cast<std::size_t>(i)] = 1.0 / ma;
      }
    }
    for (std::size_t k = 0; k < colVal_.size(); ++k) {
      colVal_[k] *= rowScale_[static_cast<std::size_t>(rowIdx_[k])];
    }
  }
  rhs_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    rhs_[static_cast<std::size_t>(i)] =
        model_.constraint(i).rhs * rowScale_[static_cast<std::size_t>(i)];
  }

  status_.assign(static_cast<std::size_t>(N_), BasisStatus::kAtLower);
  value_.assign(static_cast<std::size_t>(N_), 0.0);
  basicVar_.assign(static_cast<std::size_t>(m_), -1);
  alpha_.assign(static_cast<std::size_t>(m_), 0.0);
  mark_.assign(static_cast<std::size_t>(m_), -1);
  y_.assign(static_cast<std::size_t>(m_), 0.0);
  cb_.assign(static_cast<std::size_t>(m_), 0.0);

  maxIterations_ = options_.maxIterations > 0
                       ? options_.maxIterations
                       : 200L * (m_ + N_) + 20000L;
  blandThreshold_ = std::max<long>(2000, 20L * (m_ + N_));
}

void RevisedSimplex::coldStatuses() {
  for (int j = 0; j < n_; ++j) {
    const double lo = lower_[static_cast<std::size_t>(j)];
    const double hi = upper_[static_cast<std::size_t>(j)];
    status_[static_cast<std::size_t>(j)] =
        !std::isinf(lo) ? BasisStatus::kAtLower
        : !std::isinf(hi) ? BasisStatus::kAtUpper
                          : BasisStatus::kFree;
  }
  for (int i = 0; i < m_; ++i) {
    status_[static_cast<std::size_t>(n_ + i)] = BasisStatus::kBasic;
  }
}

bool RevisedSimplex::installWarm(const LpBasis& warm) {
  if (!warm.compatible(n_, m_)) return false;
  // Bounds may have drifted since the snapshot (MIP node fixings, epoch
  // drift): a nonbasic status pointing at a bound that no longer exists is
  // retargeted before installation rather than rejected.
  std::vector<BasisStatus> st(warm.status);
  int basicCount = 0;
  for (int j = 0; j < N_; ++j) {
    BasisStatus s = st[static_cast<std::size_t>(j)];
    const double lo = lower_[static_cast<std::size_t>(j)];
    const double hi = upper_[static_cast<std::size_t>(j)];
    if (s != BasisStatus::kBasic && lo == hi) {
      s = BasisStatus::kAtLower;
    } else {
      switch (s) {
        case BasisStatus::kBasic:
          ++basicCount;
          break;
        case BasisStatus::kAtLower:
          if (std::isinf(lo)) {
            s = std::isinf(hi) ? BasisStatus::kFree : BasisStatus::kAtUpper;
          }
          break;
        case BasisStatus::kAtUpper:
          if (std::isinf(hi)) {
            s = std::isinf(lo) ? BasisStatus::kFree : BasisStatus::kAtLower;
          }
          break;
        case BasisStatus::kFree:
          if (!std::isinf(lo)) {
            s = BasisStatus::kAtLower;
          } else if (!std::isinf(hi)) {
            s = BasisStatus::kAtUpper;
          }
          break;
      }
    }
    st[static_cast<std::size_t>(j)] = s;
  }
  if (basicCount != m_) return false;
  std::copy(st.begin(), st.end(), status_.begin());
  return true;
}

void RevisedSimplex::resetToLogicalBasis() {
  for (int j = 0; j < n_; ++j) {
    if (status_[static_cast<std::size_t>(j)] != BasisStatus::kBasic) continue;
    const double lo = lower_[static_cast<std::size_t>(j)];
    const double hi = upper_[static_cast<std::size_t>(j)];
    status_[static_cast<std::size_t>(j)] =
        !std::isinf(lo) ? BasisStatus::kAtLower
        : !std::isinf(hi) ? BasisStatus::kAtUpper
                          : BasisStatus::kFree;
  }
  for (int i = 0; i < m_; ++i) {
    status_[static_cast<std::size_t>(n_ + i)] = BasisStatus::kBasic;
    basicVar_[static_cast<std::size_t>(i)] = n_ + i;
  }
  etas_.clear();
  etasAtRefactor_ = 0;
}

void RevisedSimplex::loadColumn(int j, std::vector<double>& v,
                                std::vector<int>& supp) {
  ++markEpoch_;
  if (j < n_) {
    for (int k = colStart_[static_cast<std::size_t>(j)];
         k < colStart_[static_cast<std::size_t>(j) + 1]; ++k) {
      const int i = rowIdx_[static_cast<std::size_t>(k)];
      v[static_cast<std::size_t>(i)] = colVal_[static_cast<std::size_t>(k)];
      mark_[static_cast<std::size_t>(i)] = markEpoch_;
      supp.push_back(i);
    }
  } else {
    const int i = j - n_;
    v[static_cast<std::size_t>(i)] = 1.0;
    mark_[static_cast<std::size_t>(i)] = markEpoch_;
    supp.push_back(i);
  }
}

void RevisedSimplex::ftran(std::vector<double>& v) const {
  for (const Eta& e : etas_) {
    double& vr = v[static_cast<std::size_t>(e.row)];
    if (vr == 0.0) continue;
    vr /= e.pivot;
    const double f = vr;
    for (std::size_t k = 0; k < e.idx.size(); ++k) {
      v[static_cast<std::size_t>(e.idx[k])] -= e.val[k] * f;
    }
  }
}

void RevisedSimplex::ftranTracked(std::vector<double>& v,
                                  std::vector<int>& supp) {
  for (const Eta& e : etas_) {
    double& vr = v[static_cast<std::size_t>(e.row)];
    if (vr == 0.0) continue;
    vr /= e.pivot;
    const double f = vr;
    for (std::size_t k = 0; k < e.idx.size(); ++k) {
      const int i = e.idx[k];
      v[static_cast<std::size_t>(i)] -= e.val[k] * f;
      if (mark_[static_cast<std::size_t>(i)] != markEpoch_) {
        mark_[static_cast<std::size_t>(i)] = markEpoch_;
        supp.push_back(i);
      }
    }
  }
}

void RevisedSimplex::btran(std::vector<double>& v) const {
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double acc = v[static_cast<std::size_t>(it->row)];
    for (std::size_t k = 0; k < it->idx.size(); ++k) {
      acc -= it->val[k] * v[static_cast<std::size_t>(it->idx[k])];
    }
    v[static_cast<std::size_t>(it->row)] = acc / it->pivot;
  }
}

void RevisedSimplex::pushEta(int pivotRow, const std::vector<double>& v,
                             const std::vector<int>& supp) {
  Eta e;
  e.row = pivotRow;
  e.pivot = v[static_cast<std::size_t>(pivotRow)];
  for (const int i : supp) {
    if (i == pivotRow) continue;
    const double a = v[static_cast<std::size_t>(i)];
    if (std::fabs(a) > kEtaDropTol) {
      e.idx.push_back(i);
      e.val.push_back(a);
    }
  }
  // An identity transform contributes nothing; skipping it keeps the
  // eta file empty for the all-logical basis.
  if (e.idx.empty() && e.pivot == 1.0) return;
  etas_.push_back(std::move(e));
}

void RevisedSimplex::clearScratch(std::vector<double>& v,
                                  std::vector<int>& supp) {
  for (const int i : supp) v[static_cast<std::size_t>(i)] = 0.0;
  supp.clear();
}

bool RevisedSimplex::refactor() {
  ++counters_.refactorizations;
  etas_.clear();
  std::vector<int> cols;
  cols.reserve(static_cast<std::size_t>(m_));
  for (int j = 0; j < N_; ++j) {
    if (status_[static_cast<std::size_t>(j)] == BasisStatus::kBasic) {
      cols.push_back(j);
    }
  }
  DSCT_CHECK(static_cast<int>(cols.size()) == m_);
  // Fewest-nonzeros-first keeps early etas sparse (logicals, nnz 1, go
  // first); ties break on column index for determinism.
  std::sort(cols.begin(), cols.end(), [&](int a, int b) {
    const int na = a < n_ ? colStart_[static_cast<std::size_t>(a) + 1] -
                                colStart_[static_cast<std::size_t>(a)]
                          : 1;
    const int nb = b < n_ ? colStart_[static_cast<std::size_t>(b) + 1] -
                                colStart_[static_cast<std::size_t>(b)]
                          : 1;
    return na != nb ? na < nb : a < b;
  });
  std::vector<char> pivoted(static_cast<std::size_t>(m_), 0);
  std::fill(basicVar_.begin(), basicVar_.end(), -1);
  std::vector<int> dropped;
  int processed = 0;
  for (const int c : cols) {
    if ((processed++ % kPollStride) == 0 && pollStop()) return false;
    loadColumn(c, alpha_, alphaSupp_);
    ftranTracked(alpha_, alphaSupp_);
    int p = -1;
    double best = kFactorPivotTol;
    for (const int i : alphaSupp_) {
      if (pivoted[static_cast<std::size_t>(i)]) continue;
      const double a = std::fabs(alpha_[static_cast<std::size_t>(i)]);
      if (a > best || (p >= 0 && a == best && i < p)) {
        best = a;
        p = i;
      }
    }
    if (p < 0) {
      dropped.push_back(c);
    } else {
      pushEta(p, alpha_, alphaSupp_);
      pivoted[static_cast<std::size_t>(p)] = 1;
      basicVar_[static_cast<std::size_t>(p)] = c;
    }
    clearScratch(alpha_, alphaSupp_);
  }
  if (!dropped.empty()) {
    // Basis repair: a dependent column leaves for the bound nearest its kind,
    // and each still-unpivoted row gets its own logical back. If even that
    // fails (pathological fill), fall back to the always-valid all-logical
    // basis — correctness is unaffected, the solve just restarts warmer-less.
    for (const int c : dropped) {
      const double lo = lower_[static_cast<std::size_t>(c)];
      const double hi = upper_[static_cast<std::size_t>(c)];
      status_[static_cast<std::size_t>(c)] =
          !std::isinf(lo) ? BasisStatus::kAtLower
          : !std::isinf(hi) ? BasisStatus::kAtUpper
                            : BasisStatus::kFree;
    }
    for (int p = 0; p < m_; ++p) {
      if (pivoted[static_cast<std::size_t>(p)]) continue;
      const int c2 = n_ + p;
      bool placed = false;
      if (status_[static_cast<std::size_t>(c2)] != BasisStatus::kBasic) {
        loadColumn(c2, alpha_, alphaSupp_);
        ftranTracked(alpha_, alphaSupp_);
        int pp = -1;
        double best = kFactorPivotTol;
        for (const int i : alphaSupp_) {
          if (pivoted[static_cast<std::size_t>(i)]) continue;
          const double a = std::fabs(alpha_[static_cast<std::size_t>(i)]);
          if (a > best) {
            best = a;
            pp = i;
          }
        }
        if (pp >= 0) {
          pushEta(pp, alpha_, alphaSupp_);
          pivoted[static_cast<std::size_t>(pp)] = 1;
          basicVar_[static_cast<std::size_t>(pp)] = c2;
          status_[static_cast<std::size_t>(c2)] = BasisStatus::kBasic;
          placed = true;
        }
        clearScratch(alpha_, alphaSupp_);
      }
      if (!placed) {
        resetToLogicalBasis();
        return true;
      }
    }
  }
  etasAtRefactor_ = etas_.size();
  return true;
}

void RevisedSimplex::recomputePrimal() {
  for (int j = 0; j < N_; ++j) {
    switch (status_[static_cast<std::size_t>(j)]) {
      case BasisStatus::kAtLower:
        value_[static_cast<std::size_t>(j)] = lower_[static_cast<std::size_t>(j)];
        break;
      case BasisStatus::kAtUpper:
        value_[static_cast<std::size_t>(j)] = upper_[static_cast<std::size_t>(j)];
        break;
      case BasisStatus::kFree:
        value_[static_cast<std::size_t>(j)] = 0.0;
        break;
      case BasisStatus::kBasic:
        break;
    }
  }
  std::vector<double> w(rhs_);
  for (int j = 0; j < N_; ++j) {
    if (status_[static_cast<std::size_t>(j)] == BasisStatus::kBasic) continue;
    const double vj = value_[static_cast<std::size_t>(j)];
    if (vj == 0.0) continue;
    if (j < n_) {
      for (int k = colStart_[static_cast<std::size_t>(j)];
           k < colStart_[static_cast<std::size_t>(j) + 1]; ++k) {
        w[static_cast<std::size_t>(rowIdx_[static_cast<std::size_t>(k)])] -=
            colVal_[static_cast<std::size_t>(k)] * vj;
      }
    } else {
      w[static_cast<std::size_t>(j - n_)] -= vj;
    }
  }
  ftran(w);
  for (int i = 0; i < m_; ++i) {
    value_[static_cast<std::size_t>(basicVar_[static_cast<std::size_t>(i)])] =
        w[static_cast<std::size_t>(i)];
  }
}

bool RevisedSimplex::refactorAndRecompute() {
  if (!refactor()) return false;
  recomputePrimal();
  justRefactored_ = true;
  return true;
}

double RevisedSimplex::maxInfeasibility() const {
  double worst = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int b = basicVar_[static_cast<std::size_t>(i)];
    const double v = value_[static_cast<std::size_t>(b)];
    worst = std::max(worst, lower_[static_cast<std::size_t>(b)] - v);
    worst = std::max(worst, v - upper_[static_cast<std::size_t>(b)]);
  }
  return worst;
}

void RevisedSimplex::computePhaseCosts(int phase) {
  for (int i = 0; i < m_; ++i) {
    const int b = basicVar_[static_cast<std::size_t>(i)];
    if (phase == 2) {
      cb_[static_cast<std::size_t>(i)] = cost_[static_cast<std::size_t>(b)];
    } else {
      const double v = value_[static_cast<std::size_t>(b)];
      cb_[static_cast<std::size_t>(i)] =
          v < lower_[static_cast<std::size_t>(b)] - kFeasTol  ? -1.0
          : v > upper_[static_cast<std::size_t>(b)] + kFeasTol ? 1.0
                                                               : 0.0;
    }
  }
}

double RevisedSimplex::reducedCost(int phase, int j) const {
  double d = phase == 2 ? cost_[static_cast<std::size_t>(j)] : 0.0;
  if (j < n_) {
    for (int k = colStart_[static_cast<std::size_t>(j)];
         k < colStart_[static_cast<std::size_t>(j) + 1]; ++k) {
      d -= y_[static_cast<std::size_t>(rowIdx_[static_cast<std::size_t>(k)])] *
           colVal_[static_cast<std::size_t>(k)];
    }
  } else {
    d -= y_[static_cast<std::size_t>(j - n_)];
  }
  return d;
}

int RevisedSimplex::priceEntering(int phase, bool bland) {
  const double tol = kPricingTol;
  const auto violation = [&](int j, double d) -> double {
    switch (status_[static_cast<std::size_t>(j)]) {
      case BasisStatus::kAtLower: return -d;
      case BasisStatus::kAtUpper: return d;
      case BasisStatus::kFree: return std::fabs(d);
      case BasisStatus::kBasic: return 0.0;
    }
    return 0.0;
  };
  if (bland) {
    // Bland's rule: lowest-index eligible column, scanned from 0.
    for (int j = 0; j < N_; ++j) {
      if (status_[static_cast<std::size_t>(j)] == BasisStatus::kBasic) continue;
      if (lower_[static_cast<std::size_t>(j)] ==
          upper_[static_cast<std::size_t>(j)]) {
        continue;
      }
      if (violation(j, reducedCost(phase, j)) > tol) return j;
    }
    return -1;
  }
  // Dantzig within rotating partial-pricing windows: scan a block of columns
  // from the cursor, take the most violated; only fall through to the next
  // block when the current one has no candidate.
  const int block = std::max(64, N_ / 8);
  int scanned = 0;
  while (scanned < N_) {
    int bestJ = -1;
    double bestMag = tol;
    for (int s = 0; s < block && scanned < N_; ++s, ++scanned) {
      const int j = pricingCursor_;
      pricingCursor_ = pricingCursor_ + 1 == N_ ? 0 : pricingCursor_ + 1;
      if (status_[static_cast<std::size_t>(j)] == BasisStatus::kBasic) continue;
      if (lower_[static_cast<std::size_t>(j)] ==
          upper_[static_cast<std::size_t>(j)]) {
        continue;
      }
      const double mag = violation(j, reducedCost(phase, j));
      if (mag > bestMag) {
        bestMag = mag;
        bestJ = j;
      }
    }
    if (bestJ >= 0) return bestJ;
  }
  return -1;
}

bool RevisedSimplex::dualFeasible() {
  computePhaseCosts(2);
  std::copy(cb_.begin(), cb_.end(), y_.begin());
  btran(y_);
  const double tol = 10.0 * kPricingTol;
  for (int j = 0; j < N_; ++j) {
    if (status_[static_cast<std::size_t>(j)] == BasisStatus::kBasic) continue;
    if (lower_[static_cast<std::size_t>(j)] ==
        upper_[static_cast<std::size_t>(j)]) {
      continue;
    }
    const double d = reducedCost(2, j);
    switch (status_[static_cast<std::size_t>(j)]) {
      case BasisStatus::kAtLower:
        if (d < -tol) return false;
        break;
      case BasisStatus::kAtUpper:
        if (d > tol) return false;
        break;
      case BasisStatus::kFree:
        if (std::fabs(d) > tol) return false;
        break;
      case BasisStatus::kBasic:
        break;
    }
  }
  return true;
}

SolveStatus RevisedSimplex::runPhase(int phase) {
  for (;;) {
    if (iterations_ >= maxIterations_) return SolveStatus::kIterationLimit;
    if ((iterations_ % kPollStride) == 0 && pollStop()) {
      return SolveStatus::kTimeLimit;
    }
    if (phase == 1 && maxInfeasibility() <= kFeasTol) {
      return SolveStatus::kOptimal;  // feasible: phase 1 is done
    }
    if (etas_.size() - etasAtRefactor_ >=
        static_cast<std::size_t>(kRefactorInterval)) {
      if (!refactorAndRecompute()) return SolveStatus::kTimeLimit;
      continue;  // values refreshed; re-enter with clean state
    }

    // --- pricing ---------------------------------------------------------
    computePhaseCosts(phase);
    std::copy(cb_.begin(), cb_.end(), y_.begin());
    btran(y_);
    const bool bland = iterations_ >= blandThreshold_;
    const int q = priceEntering(phase, bland);
    if (q < 0) {
      if (phase == 1) {
        // Phase-1 optimum with residual infeasibility. Confirm on a fresh
        // factorisation before declaring the model infeasible.
        if (!justRefactored_) {
          if (!refactorAndRecompute()) return SolveStatus::kTimeLimit;
          continue;
        }
        return SolveStatus::kInfeasible;
      }
      return SolveStatus::kOptimal;
    }
    const double dq = reducedCost(phase, q);
    const double dirQ =
        status_[static_cast<std::size_t>(q)] == BasisStatus::kAtLower ? 1.0
        : status_[static_cast<std::size_t>(q)] == BasisStatus::kAtUpper
            ? -1.0
            : (dq < 0.0 ? 1.0 : -1.0);

    // --- pivot column ----------------------------------------------------
    loadColumn(q, alpha_, alphaSupp_);
    ftranTracked(alpha_, alphaSupp_);

    // --- two-sided bounded ratio test ------------------------------------
    // t is the step of the entering column in direction dirQ; each basic
    // variable moves by delta_i·t with delta_i = −dirQ·alpha_i. In phase 1
    // a basic variable that is *infeasible* blocks at the bound it is
    // approaching (first breakpoint) and does not block while moving away —
    // the composite costs already price that movement.
    double bestT = kInf;
    int blockRow = -1;
    bool leaveAtLower = true;
    double blockAlpha = 0.0;
    const double qRange = upper_[static_cast<std::size_t>(q)] -
                          lower_[static_cast<std::size_t>(q)];
    const bool ownFlip = !std::isinf(qRange);
    if (ownFlip) bestT = qRange;
    for (const int i : alphaSupp_) {
      const double a = alpha_[static_cast<std::size_t>(i)];
      if (std::fabs(a) <= kRatioTol) continue;
      const int b = basicVar_[static_cast<std::size_t>(i)];
      const double v = value_[static_cast<std::size_t>(b)];
      const double lb = lower_[static_cast<std::size_t>(b)];
      const double ub = upper_[static_cast<std::size_t>(b)];
      const double delta = -dirQ * a;
      double limit = kInf;
      bool atLower = true;
      if (phase == 1 && v < lb - kFeasTol) {
        if (delta > 0.0) {
          limit = (lb - v) / delta;  // rises to its violated lower bound
          atLower = true;
        }
      } else if (phase == 1 && v > ub + kFeasTol) {
        if (delta < 0.0) {
          limit = (ub - v) / delta;  // falls to its violated upper bound
          atLower = false;
        }
      } else if (delta > 0.0) {
        if (!std::isinf(ub)) {
          limit = (ub - v) / delta;
          atLower = false;
        }
      } else {
        if (!std::isinf(lb)) {
          limit = (lb - v) / delta;
          atLower = true;
        }
      }
      if (std::isinf(limit)) continue;
      limit = std::max(0.0, limit);
      bool take = false;
      if (limit < bestT - 1e-12) {
        take = true;
      } else if (limit < bestT + 1e-12 && blockRow >= 0) {
        // Ties: Bland mode prefers the lowest leaving column index (the
        // anti-cycling guarantee); Dantzig mode the largest |alpha| for
        // numerical stability.
        if (bland) {
          take = b < basicVar_[static_cast<std::size_t>(blockRow)];
        } else {
          take = std::fabs(a) > std::fabs(blockAlpha);
        }
      } else if (limit < bestT + 1e-12 && blockRow < 0 && !ownFlip) {
        take = true;
      }
      if (take) {
        bestT = std::min(bestT, limit);
        blockRow = i;
        leaveAtLower = atLower;
        blockAlpha = a;
      }
    }
    if (std::isinf(bestT)) {
      clearScratch(alpha_, alphaSupp_);
      // No blocking event. Phase 2: a genuine unbounded ray (confirmed on a
      // fresh factorisation). Phase 1: numerically impossible — total
      // infeasibility cannot decrease forever — so treat as drift.
      if (!justRefactored_) {
        if (!refactorAndRecompute()) return SolveStatus::kTimeLimit;
        continue;
      }
      return phase == 2 ? SolveStatus::kUnbounded : SolveStatus::kInfeasible;
    }
    // An own-bound block at the same breakpoint as a basic block prefers the
    // flip (no eta, no basis change).
    const bool flip = ownFlip && qRange <= bestT + 1e-12 && blockRow < 0;

    // --- apply the step --------------------------------------------------
    const double t = flip ? qRange : bestT;
    for (const int i : alphaSupp_) {
      const double a = alpha_[static_cast<std::size_t>(i)];
      if (a == 0.0) continue;
      const int b = basicVar_[static_cast<std::size_t>(i)];
      value_[static_cast<std::size_t>(b)] += (-dirQ * a) * t;
    }
    if (flip) {
      status_[static_cast<std::size_t>(q)] =
          dirQ > 0.0 ? BasisStatus::kAtUpper : BasisStatus::kAtLower;
      value_[static_cast<std::size_t>(q)] =
          dirQ > 0.0 ? upper_[static_cast<std::size_t>(q)]
                     : lower_[static_cast<std::size_t>(q)];
      ++counters_.boundFlips;
    } else {
      const int leave = basicVar_[static_cast<std::size_t>(blockRow)];
      value_[static_cast<std::size_t>(q)] =
          value_[static_cast<std::size_t>(q)] + dirQ * t;
      // Snap the leaving variable exactly onto its bound (kills drift).
      status_[static_cast<std::size_t>(leave)] =
          leaveAtLower ? BasisStatus::kAtLower : BasisStatus::kAtUpper;
      value_[static_cast<std::size_t>(leave)] =
          leaveAtLower ? lower_[static_cast<std::size_t>(leave)]
                       : upper_[static_cast<std::size_t>(leave)];
      status_[static_cast<std::size_t>(q)] = BasisStatus::kBasic;
      basicVar_[static_cast<std::size_t>(blockRow)] = q;
      pushEta(blockRow, alpha_, alphaSupp_);
      ++counters_.pivots;
      if (phase == 1) ++counters_.phase1Pivots;
    }
    clearScratch(alpha_, alphaSupp_);
    justRefactored_ = false;
    ++iterations_;
  }
}

bool RevisedSimplex::pollStop() {
  if (dsct::stopRequested(options_.cancel)) {
    cancelledFlag_ = true;
    return true;
  }
  return deadline_.expired();
}

LpResult RevisedSimplex::finish(LpResult result) {
  result.iterations = iterations_;
  result.counters = counters_;
  result.solveSeconds = watch_.elapsedSeconds();
  return result;
}

LpResult RevisedSimplex::stoppedResult(SolveStatus status) {
  LpResult result;
  result.status = status;
  result.cancelled = cancelledFlag_;
  result.x.assign(static_cast<std::size_t>(model_.numVariables()), 0.0);
  return finish(std::move(result));
}

LpResult RevisedSimplex::optimalResult() {
  LpResult result;
  result.status = SolveStatus::kOptimal;
  result.x.resize(static_cast<std::size_t>(n_));
  for (int j = 0; j < n_; ++j) {
    double v = value_[static_cast<std::size_t>(j)];
    v = std::max(v, lower_[static_cast<std::size_t>(j)]);
    v = std::min(v, upper_[static_cast<std::size_t>(j)]);
    result.x[static_cast<std::size_t>(j)] = v;
  }
  result.objective = model_.objectiveValue(result.x);
  // Duals: y solves Bᵀy = c_B in the scaled minimisation space, so
  // d(obj)/d(b_i) in the model's direction un-scales by the row's
  // equilibration factor and flips sign under maximisation.
  computePhaseCosts(2);
  std::copy(cb_.begin(), cb_.end(), y_.begin());
  btran(y_);
  const double dirSign = model_.maximize() ? -1.0 : 1.0;
  result.duals.resize(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) {
    result.duals[static_cast<std::size_t>(i)] =
        dirSign * y_[static_cast<std::size_t>(i)] *
        rowScale_[static_cast<std::size_t>(i)];
  }
  result.basis.status.assign(status_.begin(), status_.end());
  result.basis.numRows = m_;
  return finish(std::move(result));
}

LpResult RevisedSimplex::run() {
  for (int j = 0; j < model_.numVariables(); ++j) {
    if (varLower_[static_cast<std::size_t>(j)] >
        varUpper_[static_cast<std::size_t>(j)]) {
      return stoppedResult(SolveStatus::kInfeasible);
    }
  }
  build();

  coldStatuses();
  bool warmInstalled = false;
  if (options_.warmBasis != nullptr && !options_.warmBasis->empty()) {
    counters_.warmStartsAttempted = 1;
    if (installWarm(*options_.warmBasis)) {
      warmInstalled = true;
    } else {
      counters_.warmStartsRejected = 1;
      coldStatuses();
    }
  }
  if (!refactorAndRecompute()) return stoppedResult(SolveStatus::kTimeLimit);
  if (warmInstalled) {
    if (maxInfeasibility() <= kFeasTol) {
      ++counters_.warmStartsUsed;  // phase 1 skipped entirely
    } else {
      ++counters_.warmStartsRepaired;
    }
  }

  for (int round = 0; round < kConfirmRounds; ++round) {
    if (maxInfeasibility() > kFeasTol) {
      const SolveStatus p1 = runPhase(1);
      if (p1 == SolveStatus::kTimeLimit || p1 == SolveStatus::kIterationLimit) {
        return stoppedResult(p1);
      }
      if (maxInfeasibility() > kFeasTol) {
        return stoppedResult(SolveStatus::kInfeasible);
      }
    }
    const SolveStatus p2 = runPhase(2);
    if (p2 != SolveStatus::kOptimal) return stoppedResult(p2);
    // Optimality confirmation: rebuild the basis inverse and recompute the
    // primal point, so the answer depends only on the final basis; when the
    // refreshed point shows drift, resume pivoting instead of reporting it.
    if (!refactorAndRecompute()) return stoppedResult(SolveStatus::kTimeLimit);
    if (maxInfeasibility() <= kFeasTol && dualFeasible()) break;
  }
  return optimalResult();
}

}  // namespace

const char* toString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration_limit";
    case SolveStatus::kTimeLimit: return "time_limit";
  }
  return "unknown";
}

LpResult solveLp(const Model& model, const LpOptions& options) {
  std::vector<double> lower(static_cast<std::size_t>(model.numVariables()));
  std::vector<double> upper(static_cast<std::size_t>(model.numVariables()));
  for (int j = 0; j < model.numVariables(); ++j) {
    lower[static_cast<std::size_t>(j)] = model.variable(j).lower;
    upper[static_cast<std::size_t>(j)] = model.variable(j).upper;
  }
  return solveLpWithBounds(model, lower, upper, options);
}

LpResult solveLpWithBounds(const Model& model, std::span<const double> lower,
                           std::span<const double> upper,
                           const LpOptions& options) {
  DSCT_CHECK(static_cast<int>(lower.size()) == model.numVariables());
  DSCT_CHECK(static_cast<int>(upper.size()) == model.numVariables());
  RevisedSimplex engine(model, lower, upper, options);
  return engine.run();
}

}  // namespace dsct::lp
