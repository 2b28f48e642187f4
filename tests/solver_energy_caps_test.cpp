// Per-machine energy caps (AvailabilityHints::machineEnergyCaps) across the
// availability-aware solver set: approx, fr-opt, levels-opt, and edf3 must
// keep every machine's draw within its cap; the unaware edf baseline is the
// differential contrast that shows the caps are actually binding. A cap
// vector of any length but the machine count is rejected.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/solver_registry.h"
#include "shard/coordinator.h"
#include "tests/test_support.h"
#include "util/check.h"

namespace dsct {
namespace {

double capTol(double cap) { return 1e-6 * std::max(1.0, cap); }

/// Per-machine Joules of the outcome's best schedule.
std::vector<double> machineEnergy(const Instance& inst,
                                  const SolveOutcome& outcome) {
  std::vector<double> energy(static_cast<std::size_t>(inst.numMachines()),
                             0.0);
  if (outcome.schedule.has_value()) {
    for (int r = 0; r < inst.numMachines(); ++r) {
      energy[static_cast<std::size_t>(r)] =
          outcome.schedule->machineLoad(r) * inst.machine(r).power();
    }
  } else if (outcome.fractional.has_value()) {
    for (int r = 0; r < inst.numMachines(); ++r) {
      energy[static_cast<std::size_t>(r)] =
          outcome.fractional->machineLoad(r) * inst.machine(r).power();
    }
  }
  return energy;
}

/// Caps at `fraction` of each machine's uncapped draw — guaranteed binding
/// wherever the solver used a machine at all.
AvailabilityHints tightenedCaps(const Instance& inst,
                                const SolveOutcome& uncapped,
                                double fraction) {
  AvailabilityHints hints;
  const std::vector<double> energy = machineEnergy(inst, uncapped);
  hints.machineEnergyCaps.reserve(energy.size());
  for (const double joules : energy) {
    hints.machineEnergyCaps.push_back(std::max(joules * fraction, 1e-3));
  }
  return hints;
}

TEST(SolverEnergyCaps, AwareSolversHonorPerMachineCaps) {
  for (const char* name : {"approx", "fr-opt", "levels-opt", "edf3"}) {
    const Solver& solver = SolverRegistry::instance().resolve(name);
    ASSERT_TRUE(solver.capabilities().availabilityAware) << name;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      for (int caseIdx = 0; caseIdx < 8; ++caseIdx) {
        const Instance inst = testing::corpusInstance(seed, caseIdx);
        const SolveOutcome uncapped = solver.solve(inst, SolveContext{});
        const AvailabilityHints hints = tightenedCaps(inst, uncapped, 0.5);
        SolveContext context;
        context.availability = &hints;
        const SolveOutcome capped = solver.solve(inst, context);
        const std::vector<double> energy = machineEnergy(inst, capped);
        for (int r = 0; r < inst.numMachines(); ++r) {
          const double cap =
              hints.machineEnergyCaps[static_cast<std::size_t>(r)];
          EXPECT_LE(energy[static_cast<std::size_t>(r)], cap + capTol(cap))
              << name << " seed=" << seed << " case=" << caseIdx
              << " machine=" << r;
        }
      }
    }
  }
}

TEST(SolverEnergyCaps, NullCapsBitIdentical) {
  // The hint plumbing must be invisible when no caps are set: an empty
  // hints object and a null pointer both reproduce the uncapped solve.
  for (const char* name : {"approx", "fr-opt", "levels-opt"}) {
    const Solver& solver = SolverRegistry::instance().resolve(name);
    const Instance inst = testing::corpusInstance(4, 6);
    const SolveOutcome plain = solver.solve(inst, SolveContext{});
    AvailabilityHints empty;
    SolveContext context;
    context.availability = &empty;
    const SolveOutcome hinted = solver.solve(inst, context);
    EXPECT_EQ(hinted.totalAccuracy, plain.totalAccuracy) << name;
    EXPECT_EQ(hinted.energy, plain.energy) << name;
  }
}

TEST(SolverEnergyCaps, UnawareEdfViolatesWhereAwareSolversComply) {
  // Differential: under the same tight caps the capability-less edf
  // baseline over-draws some machine on at least one corpus member —
  // otherwise the caps test above would be vacuous.
  const Solver& edf = SolverRegistry::instance().resolve("edf");
  ASSERT_FALSE(edf.capabilities().availabilityAware);
  int violations = 0;
  for (int caseIdx = 0; caseIdx < 10; ++caseIdx) {
    const Instance inst = testing::corpusInstance(1, caseIdx);
    const SolveOutcome uncapped = edf.solve(inst, SolveContext{});
    const AvailabilityHints hints = tightenedCaps(inst, uncapped, 0.5);
    SolveContext context;
    context.availability = &hints;
    const SolveOutcome capped = edf.solve(inst, context);
    const std::vector<double> energy = machineEnergy(inst, capped);
    for (int r = 0; r < inst.numMachines(); ++r) {
      const double cap =
          hints.machineEnergyCaps[static_cast<std::size_t>(r)];
      if (energy[static_cast<std::size_t>(r)] > cap + capTol(cap)) {
        ++violations;
      }
    }
  }
  EXPECT_GT(violations, 0);
}

TEST(SolverEnergyCaps, CapsOnlyReduceTotalEnergy) {
  for (const char* name : {"approx", "fr-opt", "levels-opt"}) {
    const Solver& solver = SolverRegistry::instance().resolve(name);
    for (int caseIdx = 0; caseIdx < 6; ++caseIdx) {
      const Instance inst = testing::corpusInstance(2, caseIdx);
      const SolveOutcome uncapped = solver.solve(inst, SolveContext{});
      const AvailabilityHints hints = tightenedCaps(inst, uncapped, 0.3);
      SolveContext context;
      context.availability = &hints;
      const SolveOutcome capped = solver.solve(inst, context);
      double capTotal = 0.0;
      for (const double c : hints.machineEnergyCaps) capTotal += c;
      const double bound = std::min(inst.energyBudget(), capTotal);
      EXPECT_LE(capped.energy, bound + capTol(bound))
          << name << " case=" << caseIdx;
    }
  }
}

/// An aware registry solver by name, or "sharded-approx": the registry's
/// approx behind a two-cell ShardedSolver.
class SolverEnergyCapsLength : public ::testing::TestWithParam<std::string> {};

TEST_P(SolverEnergyCapsLength, RejectsShortAndLongCapVectors) {
  const Instance inst = testing::corpusInstance(1, 3);
  const std::size_t m = static_cast<std::size_t>(inst.numMachines());
  ASSERT_GE(m, 2u);
  const SolverRegistry& registry = SolverRegistry::instance();
  std::unique_ptr<shard::ShardedSolver> sharded;
  const Solver* solver = nullptr;
  if (GetParam() == "sharded-approx") {
    shard::ShardOptions options;
    options.cells = 2;
    sharded = std::make_unique<shard::ShardedSolver>(registry.resolve("approx"),
                                                     options);
    solver = sharded.get();
  } else {
    solver = &registry.resolve(GetParam());
  }
  ASSERT_TRUE(solver->capabilities().availabilityAware);
  for (const std::size_t length : {m - 1, m + 1}) {
    SCOPED_TRACE("length " + std::to_string(length));
    AvailabilityHints hints;
    hints.machineEnergyCaps.assign(length, 1e9);
    SolveContext context;
    context.availability = &hints;
    try {
      solver->solve(inst, context);
      ADD_FAILURE() << "a cap vector of the wrong length was accepted";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(length) + " entries"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(std::to_string(m) + " machines"), std::string::npos)
          << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SolverEnergyCaps, SolverEnergyCapsLength,
    ::testing::Values("approx", "fr-opt", "edf3", "levels-opt",
                      "sharded-approx"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace dsct
