// Branch-and-bound mixed-integer solver on top of the simplex engine.
//
// Depth-first search with most-fractional branching, LP bounding, optional
// warm incumbent (e.g. the approximation algorithm's solution as a MIP
// start), and a wall-clock time limit — the same operating regime as the
// paper's use of a commercial MIP solver with a 60 s cut-off (Fig. 4). The
// integrality (1e-6) and pruning-gap (1e-7) tolerances are constants in
// mip.cpp.
#pragma once

#include <optional>
#include <vector>

#include "solver/model.h"
#include "solver/simplex.h"

namespace dsct::lp {

struct MipOptions {
  double timeLimitSeconds = -1.0;  ///< <= 0 means unlimited
  long maxNodes = -1;              ///< <= 0 means unlimited
  LpOptions lp;                    ///< options for node LP solves
  /// Optional feasible starting point (length = numVariables); pruning
  /// starts from its objective.
  std::optional<std::vector<double>> initialSolution;
  /// Cooperative stop token, polled at every node expansion and forwarded
  /// into the node LP solves. A stop reads as kTimeLimit with `cancelled`
  /// set; the incumbent found so far is returned.
  const dsct::CancelToken* cancel = nullptr;
};

struct MipResult {
  SolveStatus status = SolveStatus::kInfeasible;
  bool timedOut = false;
  /// True when the search stopped at a cancel-token poll (in the node loop
  /// or inside a node LP) rather than its own wall-clock/node limits.
  bool cancelled = false;
  bool hasSolution = false;
  double objective = 0.0;  ///< incumbent objective (model direction)
  double bestBound = 0.0;  ///< proven bound on the optimum
  std::vector<double> x;
  long nodes = 0;
  double solveSeconds = 0.0;
  /// Summed LP telemetry over every node LP solve.
  LpCounters lpCounters;
  /// Basis of the root relaxation's optimal LP (empty when the root LP did
  /// not reach optimality). Feed back through MipOptions::lp.warmBasis to
  /// warm-start a structurally identical model — e.g. the next serving
  /// epoch's instance after bound/RHS drift.
  LpBasis rootBasis;
  /// Relative gap |bound − objective| / max(1, |objective|).
  double gap() const;
};

MipResult solveMip(const Model& model, const MipOptions& options = {});

}  // namespace dsct::lp
