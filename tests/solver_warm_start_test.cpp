// Cross-epoch LP warm starts: the contract is that a warm basis changes the
// pivot path, never the answer.
//
// Layers pinned here, bottom up:
//
//  - engine: re-solving a perturbed-RHS model from the previous optimal
//    basis matches the cold solve's objective, and a budget *increase*
//    (previous basis stays primal feasible) skips phase 1 entirely
//    (warmStartsUsed, zero phase-1 pivots);
//  - fingerprint: structuralFingerprint is invariant under budget/deadline
//    (RHS/bound) drift and sensitive to real structural change;
//  - registry ("fr-lp"): an LpWarmStartSlot carried across an epoch
//    sequence produces outcomes identical to slot-less solves, with the
//    used/rejected counters pinning when the basis actually engaged;
//  - MIP ("mip-warm" path): solveDsctMip's root-basis carry, including the
//    stale-fingerprint rejection;
//  - serving loop: a replayed trace with structurally identical epochs is
//    bit-identical with ServingOptions::lpWarmStarts on vs off, and the on
//    run proves the carry engaged (lpWarmStartsUsed > 0).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/solver_api.h"
#include "core/solver_registry.h"
#include "mipmodel/dsct_lp.h"
#include "mipmodel/dsct_mip.h"
#include "sim/serving.h"
#include "solver/model.h"
#include "solver/simplex.h"
#include "tests/serving_support.h"
#include "tests/test_support.h"

namespace dsct {
namespace {

using lp::LpBasis;
using lp::LpOptions;
using lp::LpResult;
using lp::SolveStatus;

/// The same instance with a different energy budget — pure RHS drift in the
/// fractional LP (the "energy" row), zero structural change.
Instance withBudget(const Instance& inst, double budget) {
  return Instance(inst.tasks(), inst.machines(), budget);
}

// ---- Engine level --------------------------------------------------------

TEST(WarmStart, WarmEqualsColdAcrossBudgetSweep) {
  // A 4-epoch budget sequence per corpus instance: each epoch re-solves
  // from the previous epoch's basis and must land on the cold objective.
  for (int caseIdx = 0; caseIdx < 5; ++caseIdx) {
    const Instance base = testing::corpusInstance(11, caseIdx);
    LpBasis carried;
    for (const double factor : {1.0, 0.8, 1.25, 0.6}) {
      SCOPED_TRACE("case=" + std::to_string(caseIdx) +
                   " factor=" + std::to_string(factor));
      const Instance inst =
          withBudget(base, base.energyBudget() * factor);
      const DsctLp lp = buildFractionalLp(inst);
      const LpResult cold = lp::solveLp(lp.model);
      ASSERT_EQ(cold.status, SolveStatus::kOptimal);
      EXPECT_EQ(cold.counters.warmStartsAttempted, 0);

      LpOptions warmOptions;
      warmOptions.warmBasis = &carried;
      const LpResult warm = lp::solveLp(lp.model, warmOptions);
      ASSERT_EQ(warm.status, SolveStatus::kOptimal);
      const double scale = std::max(1.0, std::abs(cold.objective));
      EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * scale);
      if (!carried.empty()) {
        EXPECT_EQ(warm.counters.warmStartsAttempted, 1);
        EXPECT_EQ(warm.counters.warmStartsUsed +
                      warm.counters.warmStartsRepaired,
                  1);
        EXPECT_EQ(warm.counters.warmStartsRejected, 0);
      }
      carried = warm.basis;
    }
  }
}

TEST(WarmStart, BudgetIncreaseSkipsPhaseOne) {
  // Relaxing the only drifted row keeps the old basis primal feasible: the
  // warm solve must classify as "used" and spend no phase-1 pivots.
  const Instance base = testing::corpusInstance(3, 1);
  const LpResult first = lp::solveLp(buildFractionalLp(base).model);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);

  const Instance relaxed = withBudget(base, base.energyBudget() * 1.5);
  LpOptions options;
  options.warmBasis = &first.basis;
  const LpResult warm = lp::solveLp(buildFractionalLp(relaxed).model, options);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_EQ(warm.counters.warmStartsUsed, 1);
  EXPECT_EQ(warm.counters.warmStartsRepaired, 0);
  EXPECT_EQ(warm.counters.phase1Pivots, 0);

  const LpResult cold = lp::solveLp(buildFractionalLp(relaxed).model);
  const double scale = std::max(1.0, std::abs(cold.objective));
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * scale);
}

TEST(WarmStart, IncompatibleShapeRejectedAtEngine) {
  const LpResult small =
      lp::solveLp(buildFractionalLp(testing::corpusInstance(5, 0)).model);
  ASSERT_EQ(small.status, SolveStatus::kOptimal);

  const DsctLp big = buildFractionalLp(testing::corpusInstance(5, 1));
  LpOptions options;
  options.warmBasis = &small.basis;  // wrong shape for `big`
  const LpResult warm = lp::solveLp(big.model, options);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_EQ(warm.counters.warmStartsAttempted, 1);
  EXPECT_EQ(warm.counters.warmStartsRejected, 1);
  EXPECT_EQ(warm.counters.warmStartsUsed, 0);
  EXPECT_EQ(warm.counters.warmStartsRepaired, 0);

  const LpResult cold = lp::solveLp(big.model);
  const double scale = std::max(1.0, std::abs(cold.objective));
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * scale);
}

// ---- Fingerprint ---------------------------------------------------------

TEST(WarmStart, FingerprintInvariantUnderRhsAndBoundDrift) {
  const Instance base = testing::corpusInstance(7, 2);
  const std::uint64_t fp =
      lp::structuralFingerprint(buildFractionalLp(base).model);
  EXPECT_NE(fp, 0u);

  // Budget drift: the energy row's RHS only.
  EXPECT_EQ(lp::structuralFingerprint(
                buildFractionalLp(withBudget(base, base.energyBudget() * 0.5))
                    .model),
            fp);

  // Deadline drift (order preserved): ddl-row RHS and t_jr upper bounds.
  std::vector<Task> shifted = base.tasks();
  for (Task& task : shifted) task.deadline *= 1.1;
  EXPECT_EQ(lp::structuralFingerprint(
                buildFractionalLp(
                    Instance(shifted, base.machines(), base.energyBudget()))
                    .model),
            fp);
}

TEST(WarmStart, FingerprintSensitiveToStructure) {
  const Instance base = testing::corpusInstance(7, 2);
  const std::uint64_t fp =
      lp::structuralFingerprint(buildFractionalLp(base).model);

  // Different batch size → different dimensions.
  EXPECT_NE(lp::structuralFingerprint(
                buildFractionalLp(testing::corpusInstance(7, 3)).model),
            fp);

  // Same dimensions, one machine speed changed → coefficient drift.
  std::vector<Machine> machines = base.machines();
  machines[0].speed *= 1.01;
  EXPECT_NE(lp::structuralFingerprint(
                buildFractionalLp(
                    Instance(base.tasks(), machines, base.energyBudget()))
                    .model),
            fp);
}

// ---- Registry: the fr-lp solver and its LpWarmStartSlot ------------------

TEST(WarmStart, FrLpSlotCarriesAcrossEpochsWithoutChangingResults) {
  const Solver& frLp = SolverRegistry::instance().resolve("fr-lp");
  ASSERT_TRUE(frLp.capabilities().usesLpWarmStart);

  const Instance base = testing::corpusInstance(13, 1);
  const std::vector<double> factors = {1.0, 0.85, 1.3, 0.7, 0.95};

  LpWarmStartSlot slot;
  SolveContext warmCtx;
  warmCtx.lpWarm = &slot;
  SolveContext coldCtx;  // no slot: every epoch solves cold

  long usedOrRepaired = 0;
  for (std::size_t epoch = 0; epoch < factors.size(); ++epoch) {
    SCOPED_TRACE("epoch=" + std::to_string(epoch));
    const Instance inst = withBudget(base, base.energyBudget() * factors[epoch]);
    const SolveOutcome warm = frLp.solve(inst, warmCtx);
    const SolveOutcome cold = frLp.solve(inst, coldCtx);

    // The slot may only change the pivot path, never the outcome.
    EXPECT_DOUBLE_EQ(warm.totalAccuracy, cold.totalAccuracy);
    EXPECT_DOUBLE_EQ(warm.energy, cold.energy);
    EXPECT_DOUBLE_EQ(warm.upperBound, cold.upperBound);
    EXPECT_EQ(cold.lpCounters.warmStartsAttempted, 0);
    if (epoch > 0) {
      EXPECT_EQ(warm.lpCounters.warmStartsAttempted, 1);
      EXPECT_EQ(warm.lpCounters.warmStartsRejected, 0);
    }
    usedOrRepaired += warm.lpCounters.warmStartsUsed +
                      warm.lpCounters.warmStartsRepaired;
    EXPECT_FALSE(slot.basis.empty());  // refilled after every optimal solve
  }
  // The carry must actually engage across the sequence, not silently reject.
  EXPECT_EQ(usedOrRepaired, static_cast<long>(factors.size()) - 1);
}

TEST(WarmStart, FrLpSlotRejectsStructuralDrift) {
  const Solver& frLp = SolverRegistry::instance().resolve("fr-lp");
  LpWarmStartSlot slot;
  SolveContext ctx;
  ctx.lpWarm = &slot;

  const SolveOutcome first = frLp.solve(testing::corpusInstance(13, 0), ctx);
  ASSERT_TRUE(first.solved());
  ASSERT_FALSE(slot.basis.empty());

  // A different batch (different n) must fall back to a cold solve and say
  // so in the counters — and match the slot-less outcome exactly.
  const Instance other = testing::corpusInstance(13, 2);
  const SolveOutcome warm = frLp.solve(other, ctx);
  EXPECT_EQ(warm.lpCounters.warmStartsAttempted, 1);
  EXPECT_EQ(warm.lpCounters.warmStartsRejected, 1);
  EXPECT_EQ(warm.lpCounters.warmStartsUsed, 0);

  SolveContext coldCtx;
  const SolveOutcome cold = frLp.solve(other, coldCtx);
  EXPECT_DOUBLE_EQ(warm.totalAccuracy, cold.totalAccuracy);
  EXPECT_DOUBLE_EQ(warm.upperBound, cold.upperBound);
}

// ---- MIP: root-basis carry through solveDsctMip --------------------------

TEST(WarmStart, MipRootBasisCarry) {
  const Instance base = testing::corpusInstance(17, 0);
  lp::MipOptions options;

  const MipSolveSummary first = solveDsctMip(base, options);
  ASSERT_FALSE(first.result.rootBasis.empty());
  ASSERT_NE(first.lpStructure, 0u);

  const Instance drifted = withBudget(base, base.energyBudget() * 0.8);
  const MipSolveSummary cold = solveDsctMip(drifted, options);
  const MipSolveSummary warm =
      solveDsctMip(drifted, options, nullptr, &first.result.rootBasis,
                   first.lpStructure);

  EXPECT_DOUBLE_EQ(warm.totalAccuracy, cold.totalAccuracy);
  EXPECT_DOUBLE_EQ(warm.result.bestBound, cold.result.bestBound);
  EXPECT_GE(warm.result.lpCounters.warmStartsUsed +
                warm.result.lpCounters.warmStartsRepaired,
            1);
  EXPECT_EQ(cold.result.lpCounters.warmStartsAttempted, 0);
}

TEST(WarmStart, MipRootBasisStaleFingerprintRejected) {
  const Instance base = testing::corpusInstance(17, 0);
  lp::MipOptions options;
  const MipSolveSummary first = solveDsctMip(base, options);
  ASSERT_FALSE(first.result.rootBasis.empty());

  // Wrong fingerprint: the basis must not be consulted at all.
  const MipSolveSummary stale =
      solveDsctMip(base, options, nullptr, &first.result.rootBasis,
                   first.lpStructure ^ 0xdeadbeefULL);
  EXPECT_GE(stale.result.lpCounters.warmStartsAttempted, 1);
  EXPECT_GE(stale.result.lpCounters.warmStartsRejected, 1);
  EXPECT_EQ(stale.result.lpCounters.warmStartsUsed, 0);
  EXPECT_DOUBLE_EQ(stale.totalAccuracy, first.totalAccuracy);
}

// ---- Serving loop: replayed trace, warm starts on vs off -----------------

/// A trace whose epochs carry structurally identical batches (same size,
/// same θ multiset, same within-epoch deadline order), so the cross-epoch
/// fingerprint matches and the warm-start slot actually engages.
sim::ServingOptions replayOptions(bool lpWarmStarts) {
  sim::ServingOptions options;
  options.horizonSeconds = 4.0;
  options.epochSeconds = 1.0;
  options.energyBudgetPerEpoch = 60.0;
  options.lpWarmStarts = lpWarmStarts;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const double start = static_cast<double>(epoch);
    options.requestTrace.push_back({start + 0.10, 0.55, 0.73, 1.0});
    options.requestTrace.push_back({start + 0.20, 0.70, 1.31, 1.0});
    options.requestTrace.push_back({start + 0.30, 0.85, 2.57, 1.0});
  }
  return options;
}

TEST(WarmStart, ServingReplayBitIdenticalWarmOnVsOff) {
  const std::vector<Machine> machines = {{1.0, 0.8, "a"}, {1.6, 0.5, "b"}};

  const sim::ServingStats on =
      sim::runServing(machines, "mip-warm", replayOptions(true));
  const sim::ServingStats off =
      sim::runServing(machines, "mip-warm", replayOptions(false));

  // Identical service: the slot changed pivot work only.
  const auto withoutLpWork = [](sim::ServingStats s) {
    s.lpPivots = 0;
    s.lpRefactorizations = 0;
    s.lpWarmStartsUsed = 0;
    s.lpWarmStartsRepaired = 0;
    s.lpWarmStartsRejected = 0;
    return s;
  };
  testing::expectSameServing(withoutLpWork(on), withoutLpWork(off));

  // Node-level basis inheritance inside each MIP solve (children warm from
  // their parent's basis) counts into used/repaired in BOTH runs, so those
  // are nonzero even with the cross-epoch slot off. Rejections can only
  // come from cross-epoch fingerprint drift: none without a slot, and with
  // one exactly the first loaded epoch rejects (the epoch-0 batch is empty
  // — its arrivals land after the boundary — so the slot's first snapshot
  // has the trivial empty-batch structure).
  EXPECT_EQ(off.lpWarmStartsRejected, 0);
  EXPECT_EQ(on.lpWarmStartsRejected, 1);
  EXPECT_GT(off.lpPivots, 0);

  // The slot adds root-LP warm starts on top of the node-level ones: the
  // structurally identical later epochs must actually reuse the carried
  // basis (not merely attempt and reject it).
  EXPECT_GT(on.lpWarmStartsUsed + on.lpWarmStartsRepaired,
            off.lpWarmStartsUsed + off.lpWarmStartsRepaired);
}

}  // namespace
}  // namespace dsct
