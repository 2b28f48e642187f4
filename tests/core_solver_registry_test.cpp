// Conformance suite for the unified solver registry (src/core/).
//
// Every registered solver must resolve by name and by alias and meet the
// contract suite on every corpus regime: a solution (unless an exact solver
// hit its time limit), energy within the budget, validator-clean integral
// schedules, scheduled + dropped = n, bit-identical repeats when its
// capabilities claim determinism, APPROX within its additive guarantee, and
// no objective above the fractional LP optimum. The paper's algorithms must
// also match the direct solveApprox/solveFrOpt calls bit for bit (the
// registry is a dispatch layer, never a numeric one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/solver_api.h"
#include "core/solver_registry.h"
#include "sched/approx.h"
#include "sched/fr_opt.h"
#include "sched/validator.h"
#include "tests/test_support.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace dsct {
namespace {

using testing::corpusInstance;

constexpr std::uint64_t kSeed = 20240807u;

SolveContext limitedContext() {
  SolveContext context;
  context.mipTimeLimitSeconds = 2.0;
  context.lpTimeLimitSeconds = 10.0;
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

/// One registered solver on one corpus case (case c is regime c % 5).
class SolverRegistryContract
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SolverRegistryContract, MeetsContract) {
  const auto& [name, caseIdx] = GetParam();
  const Solver& solver = SolverRegistry::instance().resolve(name);
  const SolverCapabilities caps = solver.capabilities();
  const SolveContext context = limitedContext();
  const Instance inst = corpusInstance(kSeed, caseIdx);
  const SolveOutcome outcome = solver.solve(inst, context);
  EXPECT_EQ(outcome.solver, name);
  EXPECT_GE(outcome.wallSeconds, 0.0);
  if (!outcome.solved()) {
    // Only an exact solver that hit its time limit may come back empty.
    EXPECT_TRUE(caps.exact);
    EXPECT_GE(outcome.wallSeconds, std::min(context.mipTimeLimitSeconds,
                                            context.lpTimeLimitSeconds));
    return;
  }

  const double budgetCap = inst.energyBudget() * (1.0 + 1e-9) + 1e-9;
  EXPECT_LE(outcome.energy, budgetCap);
  EXPECT_EQ(outcome.scheduledTasks + outcome.droppedTasks, inst.numTasks());
  EXPECT_EQ(static_cast<int>(outcome.machineLoads.size()), inst.numMachines());
  if (caps.integral) {
    ASSERT_TRUE(outcome.schedule.has_value());
    EXPECT_TRUE(validate(inst, *outcome.schedule).feasible);
  }
  if (caps.fractional && outcome.fractional.has_value()) {
    EXPECT_LE(outcome.fractional->energy(inst), budgetCap);
  }

  if (name == "approx") {
    // The paper's additive guarantee: UB - G <= SOL <= UB.
    const double tol = 1e-9 * std::max(1.0, std::abs(outcome.upperBound));
    EXPECT_LE(outcome.totalAccuracy, outcome.upperBound + tol);
    EXPECT_GE(outcome.totalAccuracy,
              outcome.upperBound - outcome.guaranteeG - tol);
  }

  // Nothing beats the fractional relaxation's optimum. (FR-OPT is not
  // asserted to reach it: on some corpus seeds it stops just below.)
  const SolveOutcome lp =
      SolverRegistry::instance().resolve("fr-lp").solve(inst, context);
  ASSERT_TRUE(lp.solved());
  EXPECT_LE(outcome.totalAccuracy,
            lp.totalAccuracy + 1e-7 * std::max(1.0, std::abs(lp.totalAccuracy)));

  if (!caps.deterministic) return;
  const SolveOutcome again = solver.solve(inst, context);
  EXPECT_EQ(again.totalAccuracy, outcome.totalAccuracy);
  EXPECT_EQ(again.energy, outcome.energy);
  EXPECT_EQ(again.upperBound, outcome.upperBound);
  EXPECT_EQ(again.scheduledTasks, outcome.scheduledTasks);
  ASSERT_EQ(again.schedule.has_value(), outcome.schedule.has_value());
  if (outcome.schedule.has_value()) {
    expectSameIntegral(*again.schedule, *outcome.schedule, inst);
  }
  EXPECT_EQ(again.machineLoads, outcome.machineLoads);
}

std::string contractCaseName(
    const ::testing::TestParamInfo<SolverRegistryContract::ParamType>& info) {
  std::string name = std::get<0>(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name + "_case" + std::to_string(std::get<1>(info.param));
}

std::vector<std::string> inexactSolverNames() {
  std::vector<std::string> names;
  for (const Solver* solver : SolverRegistry::instance().solvers()) {
    if (!solver->capabilities().exact) names.push_back(solver->name());
  }
  return names;
}

// Every solver on every regime (cases 0-4, n <= 23).
INSTANTIATE_TEST_SUITE_P(
    Corpus, SolverRegistryContract,
    ::testing::Combine(::testing::ValuesIn(SolverRegistry::instance().names()),
                       ::testing::Range(0, testing::kCorpusRegimes)),
    contractCaseName);

// The larger members (cases 5-7, n = 28-38) for the solvers that are not
// exact: branch-and-bound over the full model stays on the small cases.
INSTANTIATE_TEST_SUITE_P(
    LargerCorpus, SolverRegistryContract,
    ::testing::Combine(::testing::ValuesIn(inexactSolverNames()),
                       ::testing::Range(testing::kCorpusRegimes, 8)),
    contractCaseName);

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

TEST(SolverRegistry, PooledSolvesMatchSerialBitwise) {
  // SolveContext::pool reaches FR-OPT's profile evaluations; approx and
  // fr-opt must return the serial outcome bit for bit.
  ThreadPool pool(3);
  SolveContext pooled;
  pooled.pool = &pool;
  for (const std::string name : {"approx", "fr-opt"}) {
    const Solver& solver = SolverRegistry::instance().resolve(name);
    for (int caseIdx : {0, 2, 4, 6}) {
      SCOPED_TRACE(name + " case " + std::to_string(caseIdx));
      const Instance inst = corpusInstance(kSeed, caseIdx);
      const SolveOutcome serial = solver.solve(inst, SolveContext{});
      const SolveOutcome parallel = solver.solve(inst, pooled);
      EXPECT_EQ(parallel.totalAccuracy, serial.totalAccuracy);
      EXPECT_EQ(parallel.energy, serial.energy);
      EXPECT_EQ(parallel.upperBound, serial.upperBound);
      EXPECT_EQ(parallel.machineLoads, serial.machineLoads);
      EXPECT_EQ(parallel.counters.evaluations, serial.counters.evaluations);
      if (serial.schedule.has_value()) {
        ASSERT_TRUE(parallel.schedule.has_value());
        expectSameIntegral(*parallel.schedule, *serial.schedule, inst);
      }
    }
  }
}

TEST(SolverRegistry, AvailabilityCapsReachFrOpt) {
  // The registry hands SolveContext::availability to FR-OPT as
  // FrOptOptions::machineEnergyCaps: through the registry and directly,
  // the capped solves agree bit for bit.
  for (int caseIdx : {1, 3, 5}) {
    SCOPED_TRACE("case " + std::to_string(caseIdx));
    const Instance inst = corpusInstance(kSeed, caseIdx);
    // Half of each machine's uncapped draw: binding wherever it is used.
    const FrOptResult uncapped = solveFrOpt(inst);
    AvailabilityHints hints;
    for (int r = 0; r < inst.numMachines(); ++r) {
      hints.machineEnergyCaps.push_back(
          std::max(1e-3, 0.5 * uncapped.refinedProfile[r] *
                             inst.machine(r).power()));
    }
    SolveContext context;
    context.availability = &hints;
    FrOptOptions direct;
    direct.machineEnergyCaps = &hints.machineEnergyCaps;

    const ApproxResult approx = solveApprox(inst, direct);
    const SolveOutcome viaApprox =
        SolverRegistry::instance().resolve("approx").solve(inst, context);
    EXPECT_EQ(viaApprox.totalAccuracy, approx.totalAccuracy);
    EXPECT_EQ(viaApprox.energy, approx.energy);
    ASSERT_TRUE(viaApprox.schedule.has_value());
    expectSameIntegral(*viaApprox.schedule, approx.schedule, inst);

    const FrOptResult frOpt = solveFrOpt(inst, direct);
    const SolveOutcome viaFrOpt =
        SolverRegistry::instance().resolve("fr-opt").solve(inst, context);
    EXPECT_EQ(viaFrOpt.totalAccuracy, frOpt.totalAccuracy);
    EXPECT_EQ(viaFrOpt.machineLoads, frOpt.refinedProfile);
    EXPECT_LT(frOpt.energy, uncapped.energy);  // the caps bind
  }
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
