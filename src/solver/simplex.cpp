#include "solver/simplex.h"

#include <vector>

#include "solver/revised_simplex.h"

namespace dsct::lp {

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
  return detail::solveLpRevised(model, lower, upper, options);
}

}  // namespace dsct::lp
