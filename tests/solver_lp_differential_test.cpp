// LP differential battery: the sparse revised simplex against the dense
// tableau it replaced.
//
// The dense engine is retained verbatim as this file's reference oracle
// (tests/dense_tableau_reference.h). Every case solves the same model
// through both engines and asserts:
//
//   - identical solve status,
//   - objective agreement to 1e-9 (relative, anchored at 1),
//   - primal feasibility of the revised solution (rows and bounds),
//   - complementary slackness of the revised duals (|y_i| > tol ⇒ row i
//     binding).
//
// The fuzz section reuses the corpusInstance regimes (tests/test_support.h)
// through the real DSCT-EA-FR model builder plus randomly generated general
// LPs (mixed senses, finite/infinite/negative bounds, free and fixed
// columns) so the bounded-variable paths that the scheduling model never
// exercises are still covered. Explicit constructions pin degenerate,
// unbounded, infeasible, and all-variables-at-bound models to their exact
// status.
#include "solver/simplex.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mipmodel/dsct_lp.h"
#include "solver/model.h"
#include "tests/dense_tableau_reference.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace dsct::lp {
namespace {

constexpr double kObjTol = 1e-9;   // issue-mandated differential tolerance
constexpr double kFeasTol = 1e-6;  // primal feasibility / binding check

/// Row activity a_i^T x.
double rowActivity(const Model& model, int i, const std::vector<double>& x) {
  double activity = 0.0;
  for (const auto& [var, coeff] : model.constraint(i).coeffs) {
    activity += coeff * x[var];
  }
  return activity;
}

/// Full differential check of one model; `label` tags failures.
void checkDifferential(const Model& model, const std::string& label) {
  SCOPED_TRACE(label);
  const LpResult dense = reference::solveLpDense(model);
  const LpResult revised = solveLp(model);

  ASSERT_EQ(revised.status, dense.status)
      << "revised=" << toString(revised.status)
      << " dense=" << toString(dense.status);
  if (dense.status != SolveStatus::kOptimal) return;

  const double scale = std::max(1.0, std::abs(dense.objective));
  EXPECT_NEAR(revised.objective, dense.objective, kObjTol * scale);

  // Primal feasibility: rows and bounds.
  ASSERT_EQ(static_cast<int>(revised.x.size()), model.numVariables());
  EXPECT_TRUE(model.isFeasible(revised.x, kFeasTol))
      << "max violation " << model.maxViolation(revised.x);
  for (int j = 0; j < model.numVariables(); ++j) {
    const Variable& v = model.variable(j);
    EXPECT_GE(revised.x[j], v.lower - kFeasTol) << "var " << j;
    EXPECT_LE(revised.x[j], v.upper + kFeasTol) << "var " << j;
  }

  // Complementary slackness: a nonzero shadow price means the row binds.
  ASSERT_EQ(static_cast<int>(revised.duals.size()), model.numConstraints());
  for (int i = 0; i < model.numConstraints(); ++i) {
    if (std::abs(revised.duals[i]) <= kFeasTol) continue;
    const Constraint& row = model.constraint(i);
    const double slack = rowActivity(model, i, revised.x) - row.rhs;
    const double rowScale =
        std::max(1.0, std::abs(row.rhs));
    EXPECT_NEAR(slack, 0.0, kFeasTol * rowScale)
        << "row " << i << " has dual " << revised.duals[i]
        << " but is not binding";
  }

  // The revised engine must hand back a basis fit for warm-starting.
  EXPECT_TRUE(revised.basis.compatible(model.numVariables(),
                                       model.numConstraints()));
  EXPECT_GE(revised.counters.refactorizations, 1);
}

/// Random general LP: mixed senses, mixed bound classes, ~30% density.
/// Free/negative/fixed/boxed columns all appear; rhs chosen from a row
/// evaluated at an interior point so most draws stay feasible while some
/// remain infeasible or unbounded (both engines must simply agree).
Model randomGeneralLp(std::uint64_t seed, int n, int m) {
  Rng rng(seed);
  Model model;
  model.setMaximize(rng.uniformInt(0, 1) == 1);
  std::vector<double> interior(n);
  for (int j = 0; j < n; ++j) {
    const double cost = rng.uniform(-5.0, 5.0);
    switch (rng.uniformInt(0, 4)) {
      case 0:  // standard nonnegative
        model.addVariable(0.0, kInfinity, cost);
        interior[j] = rng.uniform(0.0, 4.0);
        break;
      case 1: {  // boxed
        const double lo = rng.uniform(-3.0, 1.0);
        model.addVariable(lo, lo + rng.uniform(0.5, 5.0), cost);
        interior[j] = lo + 0.25;
        break;
      }
      case 2:  // free
        model.addVariable(-kInfinity, kInfinity, cost);
        interior[j] = rng.uniform(-2.0, 2.0);
        break;
      case 3: {  // fixed
        const double v = rng.uniform(-2.0, 2.0);
        model.addVariable(v, v, cost);
        interior[j] = v;
        break;
      }
      default:  // negative orthant
        model.addVariable(-kInfinity, 0.0, cost);
        interior[j] = rng.uniform(-4.0, 0.0);
        break;
    }
  }
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform(0.0, 1.0) > 0.3 && static_cast<int>(coeffs.size()) > 0) {
        continue;
      }
      const double coeff = rng.uniform(-4.0, 4.0);
      if (coeff == 0.0) continue;
      coeffs.emplace_back(j, coeff);
      activity += coeff * interior[j];
    }
    if (coeffs.empty()) coeffs.emplace_back(rng.uniformInt(0, n - 1), 1.0);
    const Sense sense =
        std::array<Sense, 3>{Sense::kLe, Sense::kGe,
                             Sense::kEq}[rng.uniformInt(0, 2)];
    double rhs = activity;
    if (sense == Sense::kLe) rhs += rng.uniform(-0.5, 3.0);
    if (sense == Sense::kGe) rhs -= rng.uniform(-0.5, 3.0);
    model.addConstraint(std::move(coeffs), sense, rhs);
  }
  return model;
}

// ---- Fuzz corpus: real scheduling LPs through the model builder ----------

TEST(LpDifferential, CorpusRegimes) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (int caseIdx = 0; caseIdx < 10; ++caseIdx) {
      const Instance inst = testing::corpusInstance(seed, caseIdx);
      const DsctLp lp = buildFractionalLp(inst);
      checkDifferential(lp.model, "corpus seed=" + std::to_string(seed) +
                                      " case=" + std::to_string(caseIdx));
    }
  }
}

TEST(LpDifferential, GoldenMidSizeInstance) {
  const DsctLp lp = buildFractionalLp(testing::goldenMidSizeInstance());
  checkDifferential(lp.model, "golden mid-size");
}

TEST(LpDifferential, RandomGeneralLps) {
  int optimalSeen = 0;
  for (std::uint64_t seed = 100; seed < 160; ++seed) {
    Rng shape(deriveSeed(seed, 7));
    const int n = shape.uniformInt(2, 14);
    const int m = shape.uniformInt(1, 10);
    const Model model = randomGeneralLp(seed, n, m);
    checkDifferential(model, "random seed=" + std::to_string(seed));
    if (reference::solveLpDense(model).status == SolveStatus::kOptimal) {
      ++optimalSeen;
    }
  }
  // The generator must actually produce solvable draws, not a wall of
  // infeasible/unbounded models that trivially "agree".
  EXPECT_GE(optimalSeen, 20);
}

// ---- Golden corpus objectives: the oracle duty, frozen -------------------
// The dense tableau's only remaining job is to be this file's reference
// oracle. The table below freezes the revised engine's corpus objectives to
// 17 significant digits so the regression signal survives the dense
// engine's retirement: a future revised-simplex change that shifts any
// objective fails here directly, no second engine needed.
//
// Regenerate after an intentional numeric change with (one command):
//   DSCT_REGEN_LP_GOLDEN=1 ./solver_lp_differential_test
//     --gtest_filter='*CorpusGoldenObjectives*'

struct GoldenObjective {
  std::uint64_t seed;
  int caseIdx;  ///< -1 marks the goldenMidSizeInstance entry
  double objective;
};

constexpr GoldenObjective kCorpusGolden[] = {
    // clang-format off
    // REGEN-BEGIN
    {1, 0, 2.4599999999999995},
    {1, 1, 6.5600000000000005},
    {1, 2, 9.8467665965107347},
    {1, 3, 10.961029950861743},
    {1, 4, 0.86871946613953455},
    {1, 5, 22.960000000000004},
    {1, 6, 27.060000000000006},
    {1, 7, 29.129866923023471},
    {1, 8, 2.7900606057981303},
    {1, 9, 0.97879048901893051},
    {2, 0, 2.4599999999999995},
    {2, 1, 6.5600000000000005},
    {2, 2, 9.6510481322207351},
    {2, 3, 10.584162199533854},
    {2, 4, 1.0030090995954626},
    {2, 5, 22.960000000000004},
    {2, 6, 27.060000000000006},
    {2, 7, 27.762855601959448},
    {2, 8, 2.8665727958925196},
    {2, 9, 0.67814042027757426},
    {3, 0, 2.46},
    {3, 1, 6.5600000000000005},
    {3, 2, 10.619288793899234},
    {3, 3, 10.780955642271483},
    {3, 4, 0.8455491737927634},
    {3, 5, 22.960000000000004},
    {3, 6, 27.060000000000006},
    {3, 7, 31.051150434899643},
    {3, 8, 2.8775204773288743},
    {3, 9, 0.65656885066430759},
    {0, -1, 14.418573205489668},
    // REGEN-END
    // clang-format on
};

TEST(LpDifferential, CorpusGoldenObjectives) {
  const bool regen = std::getenv("DSCT_REGEN_LP_GOLDEN") != nullptr;
  if (regen) {
    printf("    // REGEN-BEGIN\n");
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (int caseIdx = 0; caseIdx < 10; ++caseIdx) {
        const DsctLp lp =
            buildFractionalLp(testing::corpusInstance(seed, caseIdx));
        const LpResult res = solveLp(lp.model);
        if (res.status != SolveStatus::kOptimal) continue;
        printf("    {%llu, %d, %.17g},\n",
               static_cast<unsigned long long>(seed), caseIdx, res.objective);
      }
    }
    const DsctLp golden = buildFractionalLp(testing::goldenMidSizeInstance());
    printf("    {0, -1, %.17g},\n",
           solveLp(golden.model).objective);
    printf("    // REGEN-END\n");
    GTEST_SKIP() << "regeneration run — paste the table above";
  }
  for (const GoldenObjective& g : kCorpusGolden) {
    SCOPED_TRACE("seed=" + std::to_string(g.seed) +
                 " case=" + std::to_string(g.caseIdx));
    const Instance inst = g.caseIdx < 0
                              ? testing::goldenMidSizeInstance()
                              : testing::corpusInstance(g.seed, g.caseIdx);
    const DsctLp lp = buildFractionalLp(inst);
    const LpResult res = solveLp(lp.model);
    ASSERT_EQ(res.status, SolveStatus::kOptimal);
    const double scale = std::max(1.0, std::abs(g.objective));
    EXPECT_NEAR(res.objective, g.objective, kObjTol * scale);
  }
}

// ---- Explicit constructions pinned to exact status -----------------------

TEST(LpDifferential, DegenerateVertexAgrees) {
  // Classic degenerate LP: three rows meet at (0, 0) with redundant
  // multiplicity; multiple bases describe the same optimal vertex.
  Model m;
  m.setMaximize(true);
  const int x = m.addVariable(0.0, kInfinity, 2.0);
  const int y = m.addVariable(0.0, kInfinity, 1.0);
  m.addConstraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0);
  m.addConstraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0);  // duplicate row
  m.addConstraint({{x, 1.0}}, Sense::kLe, 4.0);            // redundant at opt
  m.addConstraint({{x, 2.0}, {y, 2.0}}, Sense::kLe, 8.0);  // scaled duplicate
  checkDifferential(m, "degenerate duplicate rows");
  const LpResult res = solveLp(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 8.0, 1e-9);
}

TEST(LpDifferential, BealeCyclingModel) {
  // Beale's cycling example — degenerate pivots until Bland's rule engages.
  Model m;
  const int x1 = m.addVariable(0.0, kInfinity, -0.75);
  const int x2 = m.addVariable(0.0, kInfinity, 150.0);
  const int x3 = m.addVariable(0.0, kInfinity, -0.02);
  const int x4 = m.addVariable(0.0, kInfinity, 6.0);
  m.addConstraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                  Sense::kLe, 0.0);
  m.addConstraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                  Sense::kLe, 0.0);
  m.addConstraint({{x3, 1.0}}, Sense::kLe, 1.0);
  checkDifferential(m, "Beale cycling");
  const LpResult res = solveLp(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, -0.05, 1e-9);
}

TEST(LpDifferential, UnboundedPinned) {
  Model m;
  m.setMaximize(true);
  const int x = m.addVariable(0.0, kInfinity, 1.0);
  const int y = m.addVariable(0.0, kInfinity, 1.0);
  m.addConstraint({{x, 1.0}, {y, -1.0}}, Sense::kLe, 1.0);
  EXPECT_EQ(solveLp(m).status, SolveStatus::kUnbounded);
  EXPECT_EQ(reference::solveLpDense(m).status, SolveStatus::kUnbounded);
}

TEST(LpDifferential, UnboundedViaFreeVariable) {
  // The unbounded ray lives in a free column — the bounded-variable ratio
  // test must notice that no basic variable blocks in either direction.
  Model m;
  const int x = m.addVariable(-kInfinity, kInfinity, 1.0);  // min x, x free
  const int y = m.addVariable(0.0, 10.0, 0.0);
  m.addConstraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 100.0);
  EXPECT_EQ(solveLp(m).status, SolveStatus::kUnbounded);
  EXPECT_EQ(reference::solveLpDense(m).status, SolveStatus::kUnbounded);
}

TEST(LpDifferential, InfeasiblePinned) {
  Model m;
  const int x = m.addVariable(0.0, kInfinity, 1.0);
  const int y = m.addVariable(0.0, kInfinity, 1.0);
  m.addConstraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0);
  m.addConstraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 2.0);
  EXPECT_EQ(solveLp(m).status, SolveStatus::kInfeasible);
  EXPECT_EQ(reference::solveLpDense(m).status, SolveStatus::kInfeasible);
}

TEST(LpDifferential, InfeasibleByBoundsVsRow) {
  // Bounds alone force x+y ≥ 6, the equality row demands 5: infeasible
  // without any contradictory row pair.
  Model m;
  const int x = m.addVariable(3.0, 10.0, 1.0);
  const int y = m.addVariable(3.0, 10.0, 1.0);
  m.addConstraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 5.0);
  EXPECT_EQ(solveLp(m).status, SolveStatus::kInfeasible);
  EXPECT_EQ(reference::solveLpDense(m).status, SolveStatus::kInfeasible);
}

TEST(LpDifferential, AllVariablesAtBoundOptimum) {
  // A pure box model: the optimum puts every column at a bound (positive
  // cost → upper, negative → lower under maximisation) and the loose row
  // never binds. Exercises the bound-flip path; no simplex pivot needed.
  Model m;
  m.setMaximize(true);
  const int a = m.addVariable(-2.0, 3.0, 5.0);    // → upper 3
  const int b = m.addVariable(-4.0, -1.0, -2.0);  // → lower -4
  const int c = m.addVariable(1.0, 6.0, 1.0);     // → upper 6
  const int d = m.addVariable(-1.0, 1.0, -3.0);   // → lower -1
  m.addConstraint({{a, 1.0}, {b, 1.0}, {c, 1.0}, {d, 1.0}}, Sense::kLe, 100.0);
  checkDifferential(m, "all at bound");
  const LpResult res = solveLp(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 5.0 * 3 - 2.0 * -4 + 6.0 - 3.0 * -1, 1e-9);
  EXPECT_NEAR(res.x[a], 3.0, 1e-9);
  EXPECT_NEAR(res.x[b], -4.0, 1e-9);
  EXPECT_NEAR(res.x[c], 6.0, 1e-9);
  EXPECT_NEAR(res.x[d], -1.0, 1e-9);
  // With every structural at a bound and all logicals basic, the optimal
  // basis the engine reports must say exactly that.
  EXPECT_EQ(res.basis.status[a], BasisStatus::kAtUpper);
  EXPECT_EQ(res.basis.status[b], BasisStatus::kAtLower);
  EXPECT_EQ(res.basis.status[c], BasisStatus::kAtUpper);
  EXPECT_EQ(res.basis.status[d], BasisStatus::kAtLower);
}

TEST(LpDifferential, FixedVariablesOnly) {
  // Every column fixed (lower == upper): feasibility is a pure evaluation.
  Model m;
  const int x = m.addVariable(2.0, 2.0, 3.0);
  const int y = m.addVariable(-1.0, -1.0, 4.0);
  m.addConstraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 1.0);
  checkDifferential(m, "all fixed feasible");
  const LpResult res = solveLp(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 2.0, 1e-9);

  Model bad;
  bad.addVariable(2.0, 2.0, 1.0);
  bad.addConstraint({{0, 1.0}}, Sense::kEq, 3.0);
  EXPECT_EQ(solveLp(bad).status,
            SolveStatus::kInfeasible);
  EXPECT_EQ(reference::solveLpDense(bad).status, SolveStatus::kInfeasible);
}

TEST(LpDifferential, NoConstraints) {
  // m == 0: the answer is read straight off the bounds.
  Model m;
  m.setMaximize(true);
  m.addVariable(0.0, 2.5, 4.0);
  m.addVariable(-1.5, 0.0, -2.0);
  checkDifferential(m, "no rows");
  const LpResult res = solveLp(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 13.0, 1e-9);
}

TEST(LpDifferential, BadlyScaledRowsAgree) {
  // Mixed row magnitudes spanning ~1e8 — the equilibration path.
  Model m;
  m.setMaximize(true);
  const int x = m.addVariable(0.0, kInfinity, 1.0);
  const int y = m.addVariable(0.0, kInfinity, 1.0);
  m.addConstraint({{x, 1e6}, {y, 2e6}}, Sense::kLe, 4e6);
  m.addConstraint({{x, 3e-2}, {y, 1e-2}}, Sense::kLe, 6e-2);
  checkDifferential(m, "badly scaled");
  const LpResult res = solveLp(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 2.8, 1e-6);
}

}  // namespace
}  // namespace dsct::lp
