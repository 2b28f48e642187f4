#include "solver/mip.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/timer.h"

namespace dsct::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Distance from the nearest integer below which a value counts as integral.
constexpr double kIntegralityTol = 1e-6;
/// A node is pruned unless its parent's bound beats the incumbent by more
/// than this (model direction).
constexpr double kAbsGapTol = 1e-7;

struct Node {
  std::vector<double> lower;
  std::vector<double> upper;
  double parentBound;  ///< LP bound inherited from the parent (model direction)
  int depth;
  /// Optimal basis of the parent's LP relaxation. A child differs from its
  /// parent by one bound change, so this basis is one dual step from the
  /// child's optimum — the revised engine re-enters phase 2 from it instead
  /// of re-running phase 1 at every node.
  LpBasis basis;
};

/// Index of the most fractional integer variable, or -1 if x is integral.
int mostFractional(const Model& model, const std::vector<double>& x) {
  int best = -1;
  double bestDist = kIntegralityTol;
  for (int j = 0; j < model.numVariables(); ++j) {
    if (model.variable(j).type == VarType::kContinuous) continue;
    const double v = x[static_cast<std::size_t>(j)];
    const double frac = v - std::floor(v);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > bestDist) {
      // Most fractional = fractional part closest to 0.5, i.e. max distance
      // from the nearest integer.
      best = j;
      bestDist = dist;
    }
  }
  return best;
}

}  // namespace

double MipResult::gap() const {
  if (!hasSolution) return kInf;
  return std::fabs(bestBound - objective) / std::max(1.0, std::fabs(objective));
}

MipResult solveMip(const Model& model, const MipOptions& options) {
  Stopwatch watch;
  const TimeLimit deadline(options.timeLimitSeconds);
  const bool maximize = model.maximize();
  // better(a, b): a strictly improves on b in the model direction.
  const auto better = [maximize](double a, double b) {
    return maximize ? a > b : a < b;
  };
  const double worstValue = maximize ? -kInf : kInf;

  MipResult result;
  result.bestBound = maximize ? kInf : -kInf;

  // Seed the incumbent from the caller's starting point when valid.
  if (options.initialSolution) {
    const auto& x0 = *options.initialSolution;
    DSCT_CHECK_MSG(static_cast<int>(x0.size()) == model.numVariables(),
                   "initialSolution arity mismatch");
    if (model.isFeasible(x0, 1e-6) && mostFractional(model, x0) < 0) {
      result.hasSolution = true;
      result.objective = model.objectiveValue(x0);
      result.x = x0;
    }
  }
  double incumbent = result.hasSolution ? result.objective : worstValue;

  std::vector<Node> stack;
  {
    Node root;
    root.lower.resize(static_cast<std::size_t>(model.numVariables()));
    root.upper.resize(static_cast<std::size_t>(model.numVariables()));
    for (int j = 0; j < model.numVariables(); ++j) {
      root.lower[static_cast<std::size_t>(j)] = model.variable(j).lower;
      root.upper[static_cast<std::size_t>(j)] = model.variable(j).upper;
    }
    root.parentBound = maximize ? kInf : -kInf;
    root.depth = 0;
    stack.push_back(std::move(root));
  }

  bool sawUnbounded = false;
  bool stopped = false;  // time / node limit hit

  LpOptions lpOptions = options.lp;
  if (lpOptions.cancel == nullptr) lpOptions.cancel = options.cancel;

  while (!stack.empty()) {
    if (dsct::stopRequested(options.cancel)) {
      stopped = true;
      result.timedOut = true;
      result.cancelled = true;
      break;
    }
    if (deadline.expired()) {
      stopped = true;
      result.timedOut = true;
      break;
    }
    if (options.maxNodes > 0 && result.nodes >= options.maxNodes) {
      stopped = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++result.nodes;

    // Bound pruning on the inherited parent bound.
    if (result.hasSolution &&
        !better(node.parentBound,
                incumbent + (maximize ? kAbsGapTol : -kAbsGapTol))) {
      continue;
    }
    if (deadline.hasLimit()) {
      // Grant the true remainder, and stop rather than floor an expired
      // deadline up to 10 ms (or pass a non-positive value, which LpOptions
      // reads as unlimited).
      const double remaining = deadline.remaining();
      if (remaining <= 0.0) {
        stopped = true;
        result.timedOut = true;
        stack.push_back(std::move(node));
        break;
      }
      lpOptions.timeLimitSeconds = remaining;
    }
    // Warm start from the parent's optimal basis; the root node falls back
    // to any caller-supplied basis (cross-epoch carry through MipOptions).
    lpOptions.warmBasis =
        node.basis.empty() ? options.lp.warmBasis : &node.basis;
    const LpResult lp =
        solveLpWithBounds(model, node.lower, node.upper, lpOptions);
    result.lpCounters.add(lp.counters);
    if (lp.status == SolveStatus::kOptimal && node.depth == 0 &&
        result.rootBasis.empty()) {
      result.rootBasis = lp.basis;
    }
    if (lp.status == SolveStatus::kInfeasible) continue;
    if (lp.status == SolveStatus::kUnbounded) {
      sawUnbounded = true;
      break;
    }
    if (lp.status == SolveStatus::kTimeLimit ||
        lp.status == SolveStatus::kIterationLimit) {
      stopped = true;
      result.timedOut = (lp.status == SolveStatus::kTimeLimit);
      result.cancelled = result.cancelled || lp.cancelled;
      // The node is unresolved; its parent bound stays open.
      stack.push_back(std::move(node));
      break;
    }
    const double bound = lp.objective;
    if (result.hasSolution && !better(bound, incumbent)) continue;

    const int branchVar = mostFractional(model, lp.x);
    if (branchVar < 0) {
      // Integral LP optimum: new incumbent.
      if (!result.hasSolution || better(bound, incumbent)) {
        result.hasSolution = true;
        result.objective = bound;
        result.x = lp.x;
        incumbent = bound;
      }
      continue;
    }

    const double v = lp.x[static_cast<std::size_t>(branchVar)];
    const double floorV = std::floor(v);
    Node down = node;
    down.upper[static_cast<std::size_t>(branchVar)] =
        std::min(down.upper[static_cast<std::size_t>(branchVar)], floorV);
    down.parentBound = bound;
    down.depth = node.depth + 1;
    down.basis = lp.basis;
    Node up = std::move(node);
    up.lower[static_cast<std::size_t>(branchVar)] =
        std::max(up.lower[static_cast<std::size_t>(branchVar)], floorV + 1.0);
    up.parentBound = bound;
    up.depth = down.depth;
    up.basis = lp.basis;
    // Explore the branch nearest the LP value first (last pushed).
    if (v - floorV >= 0.5) {
      stack.push_back(std::move(down));
      stack.push_back(std::move(up));
    } else {
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    }
  }

  result.solveSeconds = watch.elapsedSeconds();
  if (sawUnbounded) {
    result.status = SolveStatus::kUnbounded;
    return result;
  }
  if (!stopped) {
    // Search exhausted: the incumbent (if any) is proven optimal.
    result.status =
        result.hasSolution ? SolveStatus::kOptimal : SolveStatus::kInfeasible;
    result.bestBound = result.hasSolution ? result.objective
                                          : (maximize ? -kInf : kInf);
    return result;
  }
  // Stopped early: the proven bound is the best over open nodes (and the
  // incumbent itself).
  double openBound = result.hasSolution ? incumbent : worstValue;
  for (const Node& n : stack) {
    if (better(n.parentBound, openBound)) openBound = n.parentBound;
  }
  result.bestBound = openBound;
  result.status = result.timedOut ? SolveStatus::kTimeLimit
                                  : SolveStatus::kIterationLimit;
  return result;
}

}  // namespace dsct::lp
