// Conformance suite for the unified solver registry (src/core/).
//
// Every registered solver must: resolve by name and by alias, produce
// validator-clean schedules that respect the energy budget, repeat
// bit-identically when its capabilities claim determinism, and — for the
// paper's algorithms — match the direct solveApprox/solveFrOpt calls bit for
// bit (the registry is a dispatch layer, never a numeric one).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/solver_api.h"
#include "core/solver_registry.h"
#include "sched/approx.h"
#include "sched/fr_opt.h"
#include "sched/profile_cache.h"
#include "sched/validator.h"
#include "tests/test_support.h"
#include "util/check.h"

namespace dsct {
namespace {

using testing::corpusInstance;

constexpr std::uint64_t kSeed = 20240807u;

/// Cases each solver runs over: exact solvers branch-and-bound over the full
/// model, so they stay on the two smallest corpus members (n = 3 and n = 8)
/// to keep the suite in the fast lane.
std::vector<int> corpusCasesFor(const Solver& solver) {
  if (solver.capabilities().exact) return {0, 1};
  return {0, 1, 2, 3, 4, 5, 6, 7};
}

SolveContext limitedContext() {
  SolveContext context;
  context.mip.timeLimitSeconds = 2.0;
  context.lp.timeLimitSeconds = 10.0;
  return context;
}

void expectSameIntegral(const IntegralSchedule& a, const IntegralSchedule& b,
                        const Instance& inst) {
  for (int j = 0; j < inst.numTasks(); ++j) {
    EXPECT_EQ(a.machineOf(j), b.machineOf(j)) << "task " << j;
    EXPECT_EQ(a.duration(j), b.duration(j)) << "task " << j;
  }
}

TEST(SolverRegistry, AllAlgorithmsResolveByNameAndAlias) {
  const std::vector<std::pair<std::string, std::string>> nameAndAlias = {
      {"approx", "dsct-ea-approx"}, {"fr-opt", "fropt"},
      {"edf", "edf-nocompress"},    {"edf3", "edf-levels"},
      {"levels-opt", "edf3-opt"},   {"mip-warm", "mip"},
      {"fr-lp", "frlp"},
  };
  for (const auto& [name, alias] : nameAndAlias) {
    const Solver& byName = SolverRegistry::instance().resolve(name);
    EXPECT_EQ(byName.name(), name);
    // Aliases are pure synonyms: same registered instance, not a copy.
    EXPECT_EQ(&SolverRegistry::instance().resolve(alias), &byName) << alias;
  }
  // mip-cold has no alias but must still be registered.
  EXPECT_EQ(SolverRegistry::instance().resolve("mip-cold").name(), "mip-cold");
  EXPECT_GE(SolverRegistry::instance().solvers().size(), 8u);
}

TEST(SolverRegistry, UnknownNameFailsLoudlyWithKnownNamesListed) {
  EXPECT_EQ(SolverRegistry::instance().find("no-such-solver"), nullptr);
  try {
    SolverRegistry::instance().resolve("no-such-solver");
    FAIL() << "resolve() must throw for unknown names";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-solver"), std::string::npos);
    EXPECT_NE(what.find("approx"), std::string::npos)
        << "error should list the registered names: " << what;
  }
}

TEST(SolverRegistry, OutcomesAreValidatorCleanAndWithinBudget) {
  const SolveContext context = limitedContext();
  for (const Solver* solver : SolverRegistry::instance().solvers()) {
    for (int caseIdx : corpusCasesFor(*solver)) {
      const Instance inst = corpusInstance(kSeed, caseIdx);
      const SolveOutcome outcome = solver->solve(inst, context);
      SCOPED_TRACE(solver->name() + " case " + std::to_string(caseIdx));
      EXPECT_EQ(outcome.solver, solver->name());
      EXPECT_GE(outcome.wallSeconds, 0.0);
      if (!outcome.solved()) {
        // Only a time-limited exact solver may come back empty-handed.
        EXPECT_TRUE(solver->capabilities().exact);
        continue;
      }
      const double budgetCap =
          inst.energyBudget() * (1.0 + 1e-9) + 1e-9;
      EXPECT_LE(outcome.energy, budgetCap);
      EXPECT_EQ(outcome.scheduledTasks + outcome.droppedTasks,
                inst.numTasks());
      EXPECT_EQ(static_cast<int>(outcome.machineLoads.size()),
                inst.numMachines());
      if (solver->capabilities().integral) {
        ASSERT_TRUE(outcome.schedule.has_value());
        EXPECT_TRUE(validate(inst, *outcome.schedule).feasible);
      }
      if (solver->capabilities().fractional &&
          outcome.fractional.has_value()) {
        EXPECT_LE(outcome.fractional->energy(inst), budgetCap);
      }
    }
  }
}

TEST(SolverRegistry, DeterministicSolversRepeatBitIdentically) {
  const SolveContext context = limitedContext();
  for (const Solver* solver : SolverRegistry::instance().solvers()) {
    if (!solver->capabilities().deterministic) continue;
    for (int caseIdx : corpusCasesFor(*solver)) {
      const Instance inst = corpusInstance(kSeed, caseIdx);
      const SolveOutcome a = solver->solve(inst, context);
      const SolveOutcome b = solver->solve(inst, context);
      SCOPED_TRACE(solver->name() + " case " + std::to_string(caseIdx));
      EXPECT_EQ(a.totalAccuracy, b.totalAccuracy);
      EXPECT_EQ(a.energy, b.energy);
      EXPECT_EQ(a.upperBound, b.upperBound);
      EXPECT_EQ(a.scheduledTasks, b.scheduledTasks);
      ASSERT_EQ(a.schedule.has_value(), b.schedule.has_value());
      if (a.schedule.has_value()) {
        expectSameIntegral(*a.schedule, *b.schedule, inst);
      }
      ASSERT_EQ(a.machineLoads.size(), b.machineLoads.size());
      for (std::size_t r = 0; r < a.machineLoads.size(); ++r) {
        EXPECT_EQ(a.machineLoads[r], b.machineLoads[r]);
      }
    }
  }
}

TEST(SolverRegistry, ApproxOutcomeBitIdenticalToDirectCall) {
  for (int caseIdx : {0, 1, 2, 3, 4, 5, 6, 7}) {
    const Instance inst = corpusInstance(kSeed, caseIdx);
    const ApproxResult direct = solveApprox(inst);
    const SolveOutcome outcome =
        SolverRegistry::instance().resolve("approx").solve(inst,
                                                           SolveContext{});
    SCOPED_TRACE("case " + std::to_string(caseIdx));
    EXPECT_EQ(outcome.totalAccuracy, direct.totalAccuracy);
    EXPECT_EQ(outcome.energy, direct.energy);
    EXPECT_EQ(outcome.upperBound, direct.upperBound);
    EXPECT_EQ(outcome.guaranteeG, direct.guarantee.g);
    ASSERT_TRUE(outcome.schedule.has_value());
    expectSameIntegral(*outcome.schedule, direct.schedule, inst);
  }
}

TEST(SolverRegistry, FrOptOutcomeBitIdenticalToDirectCall) {
  for (int caseIdx : {0, 1, 2, 3, 4, 5, 6, 7}) {
    const Instance inst = corpusInstance(kSeed, caseIdx);
    const FrOptResult direct = solveFrOpt(inst);
    const SolveOutcome outcome =
        SolverRegistry::instance().resolve("fr-opt").solve(inst,
                                                           SolveContext{});
    SCOPED_TRACE("case " + std::to_string(caseIdx));
    EXPECT_EQ(outcome.totalAccuracy, direct.totalAccuracy);
    EXPECT_EQ(outcome.upperBound, direct.totalAccuracy);
    ASSERT_EQ(outcome.machineLoads.size(), direct.refinedProfile.size());
    for (std::size_t r = 0; r < outcome.machineLoads.size(); ++r) {
      EXPECT_EQ(outcome.machineLoads[r], direct.refinedProfile[r]);
    }
    EXPECT_EQ(outcome.counters.evaluations, direct.counters.evaluations);
    EXPECT_EQ(outcome.counters.directionLpSolves,
              direct.counters.directionLpSolves);
    ASSERT_TRUE(outcome.fractional.has_value());
    EXPECT_FALSE(outcome.schedule.has_value());
  }
}

TEST(SolverRegistry, SharedCacheContextIsNumericallyInvisible) {
  // The cross-solve ProfileCache changes the work, never the answer: cold
  // context, cache-attached cold solve, and cache-attached warm re-solve
  // must agree bit for bit (same invariant the serving loop relies on).
  ProfileCache cache;
  SolveContext cached;
  cached.frOpt.sharedCache = &cache;
  const Solver& approx = SolverRegistry::instance().resolve("approx");
  for (int caseIdx : {0, 2, 4, 6}) {
    const Instance inst = corpusInstance(kSeed, caseIdx);
    const SolveOutcome cold = approx.solve(inst, SolveContext{});
    const SolveOutcome first = approx.solve(inst, cached);
    const SolveOutcome warm = approx.solve(inst, cached);
    SCOPED_TRACE("case " + std::to_string(caseIdx));
    for (const SolveOutcome* other : {&first, &warm}) {
      EXPECT_EQ(cold.totalAccuracy, other->totalAccuracy);
      EXPECT_EQ(cold.energy, other->energy);
      EXPECT_EQ(cold.upperBound, other->upperBound);
      ASSERT_TRUE(other->schedule.has_value());
      expectSameIntegral(*cold.schedule, *other->schedule, inst);
    }
  }
  // The warm pass actually hit the cache (the context was not ignored).
  EXPECT_GT(cache.counters().hits, 0);
}

TEST(SolverRegistry, CapabilitiesDescribeOutputs) {
  const SolveContext context = limitedContext();
  for (const Solver* solver : SolverRegistry::instance().solvers()) {
    const SolverCapabilities caps = solver->capabilities();
    EXPECT_TRUE(caps.integral || caps.fractional) << solver->name();
    const Instance inst = corpusInstance(kSeed, 1);
    const SolveOutcome outcome = solver->solve(inst, context);
    if (!outcome.solved()) continue;
    if (outcome.schedule.has_value()) {
      EXPECT_TRUE(caps.integral);
    }
    if (outcome.fractional.has_value()) {
      EXPECT_TRUE(caps.fractional);
    }
  }
}

}  // namespace
}  // namespace dsct
