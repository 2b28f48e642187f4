// Solver tour: every algorithm in the repo through one interface.
//
// The SolverRegistry (src/core/) is the single dispatch point for all of the
// paper's algorithms and baselines. This example walks it end to end: list
// the registered solvers and their capabilities, run each one on the same
// instance through a shared SolveContext, then use registry outcomes to
// check the paper's SOL <= OPT <= UB ordering.
//
//   $ ./solver_tour
#include <iostream>
#include <string>

#include "dsct/dsct.h"

int main() {
  using namespace dsct;

  SolverRegistry& registry = SolverRegistry::instance();

  // ---- 1. What is registered? ----
  // Names and aliases both resolve; capabilities say what each solver emits
  // (an integral schedule, a fractional relaxation, or both) and whether it
  // is exact and deterministic.
  std::cout << "registered solvers:\n";
  for (const Solver* solver : registry.solvers()) {
    std::string aliases;
    for (const std::string& alias : registry.aliasesOf(solver->name())) {
      if (!aliases.empty()) aliases += ", ";
      aliases += alias;
    }
    const SolverCapabilities caps = solver->capabilities();
    std::cout << "  " << solver->name() << " (" << solver->displayName()
              << ")";
    if (!aliases.empty()) std::cout << " aka " << aliases;
    std::cout << " [" << (caps.integral ? "integral" : "")
              << (caps.integral && caps.fractional ? "+" : "")
              << (caps.fractional ? "fractional" : "")
              << (caps.exact ? ", exact" : "")
              << (caps.deterministic ? "" : ", nondeterministic") << "]\n";
  }

  // ---- 2. One instance, every solver, one shared context ----
  // The context carries per-family options; passing the same context to
  // every solve is exactly what the serving loop and the experiment runner
  // do.
  ScenarioSpec spec;
  spec.numTasks = 6;
  spec.numMachines = 2;
  spec.rho = 0.35;
  spec.beta = 0.5;
  const Instance inst = makeScenario(spec, 0.1, 1.0, 11);

  SolveContext context;
  context.mip.timeLimitSeconds = 10.0;
  context.lp.timeLimitSeconds = 10.0;

  std::cout << "\nn=" << inst.numTasks() << ", m=" << inst.numMachines()
            << ", budget " << formatFixed(inst.energyBudget(), 3) << ":\n";
  for (const Solver* solver : registry.solvers()) {
    const SolveOutcome out = solver->solve(inst, context);
    std::cout << "  " << out.solver << ": ";
    if (!out.solved()) {
      std::cout << "no solution within limits\n";
      continue;
    }
    std::cout << "accuracy " << formatFixed(out.totalAccuracy, 5)
              << ", energy " << formatFixed(out.energy, 3) << ", "
              << out.scheduledTasks << "/" << inst.numTasks()
              << " tasks in " << formatFixed(out.wallSeconds * 1e3, 2)
              << " ms\n";
  }

  // ---- 3. The paper's sandwich, via registry outcomes ----
  // approx gives SOL and the fractional upper bound UB; the warm-started
  // MIP gives OPT. All three come back on the same SolveOutcome shape.
  const SolveOutcome approx = registry.resolve("approx").solve(inst, context);
  const SolveOutcome exact =
      registry.resolve("mip-warm").solve(inst, context);
  std::cout << "\nDSCT-EA ordering on this instance:\n"
            << "  approx   SOL = " << formatFixed(approx.totalAccuracy, 5)
            << " (guarantee G = " << formatFixed(approx.guaranteeG, 4)
            << ")\n"
            << "  mip-warm OPT = " << formatFixed(exact.totalAccuracy, 5)
            << '\n'
            << "  UB (frac)    = " << formatFixed(approx.upperBound, 5)
            << '\n'
            << "ordering SOL <= OPT <= UB holds: "
            << (approx.totalAccuracy <= exact.totalAccuracy + 1e-6 &&
                        exact.totalAccuracy <= approx.upperBound + 1e-6
                    ? "yes"
                    : "no")
            << '\n';

  // Aliases resolve to the very same solver instance.
  std::cout << "alias check: &resolve(\"dsct-ea-approx\") == &resolve(\"approx\"): "
            << (&registry.resolve("dsct-ea-approx") ==
                        &registry.resolve("approx")
                    ? "yes"
                    : "no")
            << '\n';
  return 0;
}
