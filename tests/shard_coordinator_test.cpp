// The shard coordinator (src/shard/coordinator.h): K = 1 bit-identity,
// outer price-loop convergence across the corpus regimes, budget safety of
// the merged schedule, the price each cell solve carries, cancellation, and
// the ShardedSolver adapter surface.
#include "shard/coordinator.h"

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/solver_registry.h"
#include "sched/energy_price.h"
#include "tests/test_support.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace dsct::shard {
namespace {

const Solver& innerSolver(const std::string& name = "approx") {
  return SolverRegistry::instance().resolve(name);
}

/// Cells of `inst`'s partition that own at least one task: the cells the
/// coordinator solves.
int nonEmptyCells(const Instance& inst, const ShardCoordinator& coordinator) {
  int count = 0;
  const Partition part = partitionInstance(
      inst, {coordinator.lastStats().cells, coordinator.options().seed});
  for (const std::vector<int>& tasks : part.tasksOf()) {
    if (!tasks.empty()) ++count;
  }
  return count;
}

/// What one cell solve received.
struct CellCall {
  double budget = 0.0;
  double price = 0.0;
  double demandAtPrice = 0.0;  ///< the cell's own demand curve at `price`
};

/// An approx solver that records every cell solve handed to it.
class CellRecorder {
 public:
  CellRecorder()
      : solver_(makeSolver(
            "test-cell-recorder", "cell recorder",
            innerSolver().capabilities(),
            [this](const Instance& inst, const SolveContext& context) {
              CellCall call{inst.energyBudget(), context.energyPrice, 0.0};
              if (call.price >= 0.0) {
                call.demandAtPrice =
                    PricedDemandCurve(inst).demandAt(call.price);
              }
              {
                const std::lock_guard<std::mutex> lock(mutex_);
                calls_.push_back(call);
              }
              return innerSolver().solve(inst, context);
            })) {}

  const Solver& solver() const { return *solver_; }
  std::vector<CellCall> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(calls_, {});
  }

 private:
  std::mutex mutex_;
  std::vector<CellCall> calls_;
  std::unique_ptr<Solver> solver_;
};

TEST(ShardCoordinator, SingleCellBitIdenticalToInnerSolver) {
  for (const char* name : {"approx", "fr-opt", "edf3"}) {
    SCOPED_TRACE(name);
    const Solver& inner = innerSolver(name);
    for (int caseIdx = 0; caseIdx < 6; ++caseIdx) {
      const Instance inst = testing::corpusInstance(3, caseIdx);
      const SolveContext context;
      const SolveOutcome direct = inner.solve(inst, context);

      ShardOptions options;
      options.cells = 1;
      ShardCoordinator coordinator(inner, options);
      const SolveOutcome sharded = coordinator.solve(inst, context);

      EXPECT_EQ(sharded.totalAccuracy, direct.totalAccuracy)
          << "case " << caseIdx;
      EXPECT_EQ(sharded.energy, direct.energy) << "case " << caseIdx;
      EXPECT_EQ(sharded.scheduledTasks, direct.scheduledTasks);
      EXPECT_TRUE(coordinator.lastStats().converged);
      EXPECT_EQ(coordinator.lastStats().cells, 1);
    }
  }
}

TEST(ShardCoordinator, PriceLoopConvergesAcrossCorpusRegimes) {
  const Solver& inner = innerSolver();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (int caseIdx = 0; caseIdx < 10; ++caseIdx) {
      const Instance inst = testing::corpusInstance(seed, caseIdx);
      if (inst.numMachines() < 2) continue;
      ShardOptions options;
      options.cells = 2 + caseIdx % 3;
      ShardCoordinator coordinator(inner, options);
      const SolveOutcome outcome = coordinator.solve(inst, SolveContext{});
      const ShardStats& stats = coordinator.lastStats();
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " case=" + std::to_string(caseIdx) +
                   " cells=" + std::to_string(stats.cells));
      // Breakpoint-snapping bisection either lands in the tolerance band or
      // pins the critical price exactly — it never just runs out of
      // iterations on these sizes.
      EXPECT_TRUE(stats.converged);
      EXPECT_LE(stats.priceIterations, kMaxPriceIterations);
      EXPECT_GE(stats.finalPrice, 0.0);
      // The assigned cell budgets never oversubscribe B, and the merged
      // schedule honours the global budget.
      EXPECT_LE(stats.budgetAssigned, inst.energyBudget() * (1.0 + 1e-9));
      EXPECT_LE(outcome.energy, inst.energyBudget() * (1.0 + 1e-6));
      EXPECT_TRUE(outcome.solved());
    }
  }
}

TEST(ShardCoordinator, MergedScheduleMeetsDeadlines) {
  const Solver& inner = innerSolver();
  const Instance inst = testing::randomInstance(5, 40, 8, 0.35, 0.3);
  ShardOptions options;
  options.cells = 4;
  ShardCoordinator coordinator(inner, options);
  const SolveOutcome outcome = coordinator.solve(inst, SolveContext{});
  ASSERT_TRUE(outcome.schedule.has_value());
  const IntegralSchedule& schedule = *outcome.schedule;
  for (int j = 0; j < inst.numTasks(); ++j) {
    if (schedule.machineOf(j) < 0) continue;
    EXPECT_LE(schedule.start(j) + schedule.duration(j),
              inst.task(j).deadline + 1e-9)
        << "task " << j;
  }
}

TEST(ShardCoordinator, TopUpNeverWorsensTheSolve) {
  const Solver& inner = innerSolver();
  for (int caseIdx = 0; caseIdx < 8; ++caseIdx) {
    const Instance inst = testing::corpusInstance(9, caseIdx);
    if (inst.numMachines() < 2) continue;
    ShardOptions options;
    options.cells = 2;
    ShardCoordinator withTopUp(inner, options);
    options.topUp = false;
    ShardCoordinator withoutTopUp(inner, options);
    const double topped =
        withTopUp.solve(inst, SolveContext{}).totalAccuracy;
    const double plain =
        withoutTopUp.solve(inst, SolveContext{}).totalAccuracy;
    EXPECT_GE(topped, plain - 1e-9) << "case " << caseIdx;
  }
}

TEST(ShardCoordinator, ParallelCellSolvesMatchSerial) {
  const Solver& inner = innerSolver();
  const Instance inst = testing::randomInstance(31, 60, 8, 0.35, 0.2);
  ShardOptions options;
  options.cells = 4;

  ShardCoordinator serial(inner, options);
  const SolveOutcome serialOutcome = serial.solve(inst, SolveContext{});

  ThreadPool pool;
  SolveContext pooled;
  pooled.pool = &pool;
  ShardCoordinator parallel(inner, options);
  const SolveOutcome parallelOutcome = parallel.solve(inst, pooled);

  // The partition and per-cell budgets are pool-independent; the merged
  // objective must match bit for bit (parallelMap is index-ordered).
  EXPECT_EQ(parallelOutcome.totalAccuracy, serialOutcome.totalAccuracy);
  EXPECT_EQ(parallelOutcome.energy, serialOutcome.energy);
}

TEST(ShardCoordinator, CellWarmSlotsPersistAcrossSolves) {
  // A cell's LP warm-start slot is its only cross-solve state. Every solve
  // must hand each cell one slot of its own, at the price and in the top-up
  // alike, and the same slots again on the next solve.
  std::mutex mutex;
  std::vector<std::pair<const LpWarmStartSlot*, bool>> calls;  // slot, priced
  const std::unique_ptr<Solver> recorder = makeSolver(
      "test-slot-recorder", "slot recorder", innerSolver().capabilities(),
      [&](const Instance& inst, const SolveContext& context) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          calls.emplace_back(context.lpWarm, context.energyPrice >= 0.0);
        }
        return innerSolver().solve(inst, context);
      });
  const Instance inst = testing::randomInstance(41, 30, 6, 0.35, 0.25);
  ShardOptions options;
  options.cells = 3;
  ShardCoordinator coordinator(*recorder, options);
  std::set<const LpWarmStartSlot*> previous;
  for (int solve = 0; solve < 2; ++solve) {
    SCOPED_TRACE("solve " + std::to_string(solve));
    calls.clear();
    coordinator.solve(inst, SolveContext{});
    ASSERT_EQ(coordinator.lastStats().cells, 3);
    std::set<const LpWarmStartSlot*> slots;
    for (const auto& [slot, priced] : calls) {
      if (priced) {
        EXPECT_TRUE(slots.insert(slot).second);
      }
    }
    EXPECT_EQ(slots.size(), 3u);
    EXPECT_EQ(slots.count(nullptr), 0u);
    for (const auto& [slot, priced] : calls) EXPECT_EQ(slots.count(slot), 1u);
    if (solve > 0) {
      EXPECT_EQ(slots, previous);
    }
    previous = slots;
  }
}

TEST(ShardedSolver, AdapterSurfacesInnerIdentity) {
  const Solver& inner = innerSolver();
  ShardOptions options;
  options.cells = 2;
  const ShardedSolver solver(inner, options);
  EXPECT_EQ(solver.name(), "sharded-approx");
  EXPECT_EQ(&solver.inner(), &inner);
  EXPECT_TRUE(solver.capabilities().integral);

  const Instance inst = testing::randomInstance(51, 20, 4, 0.35, 0.3);
  const SolveOutcome outcome = solver.solve(inst, SolveContext{});
  EXPECT_TRUE(outcome.solved());
  EXPECT_EQ(outcome.solver, "sharded-approx");
  EXPECT_EQ(solver.lastStats().cells, 2);
}

TEST(ShardCoordinator, RespectsAvailabilityCapSlices) {
  // Machine 0 gets a near-zero charge: the coordinator must slice the hint
  // into the owning cell and the availability-aware inner solver must keep
  // that machine (almost) idle in the merged schedule.
  const Instance inst = testing::randomInstance(61, 24, 6, 0.35, 0.6);
  AvailabilityHints hints;
  hints.machineEnergyCaps.assign(
      static_cast<std::size_t>(inst.numMachines()), 1e9);
  hints.machineEnergyCaps[0] = 1e-6;
  SolveContext context;
  context.availability = &hints;

  ShardOptions options;
  options.cells = 3;
  ShardCoordinator coordinator(innerSolver(), options);
  const SolveOutcome outcome = coordinator.solve(inst, context);
  ASSERT_TRUE(outcome.schedule.has_value());
  const double load0 = outcome.schedule->machineLoad(0);
  EXPECT_LE(load0 * inst.machine(0).power(), 1e-5);
}

TEST(ShardCoordinator, FirstPassCellBudgetsWithinDemandAtThePrice) {
  // Why a priced cell solve needs no budget cap of its own: the first pass
  // grants each cell its demand at the accepted λ, and a cell's demand
  // curve reads its tasks and machines, never its budget.
  CellRecorder recorder;
  long long priced = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (int caseIdx = 0; caseIdx < 10; ++caseIdx) {
      const Instance inst = testing::corpusInstance(seed, caseIdx);
      if (inst.numMachines() < 2) continue;
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " case=" + std::to_string(caseIdx));
      ShardOptions options;
      options.cells = 2 + caseIdx % 3;
      ShardCoordinator coordinator(recorder.solver(), options);
      coordinator.solve(inst, SolveContext{});
      for (const CellCall& call : recorder.take()) {
        if (call.price < 0.0) continue;
        ++priced;
        EXPECT_LE(call.budget, call.demandAtPrice);
      }
    }
  }
  EXPECT_GT(priced, 0);
}

TEST(ShardCoordinator, FirstPassCellBudgetsSumToAtMostTheBudgetExactly) {
  // The accepted λ never has a summed demand above B. So the cell budgets,
  // added in cell order as the coordinator adds them, are at most B with
  // no tolerance and equal budgetAssigned bit for bit. Cells without tasks
  // are not solved; their demand is 0 and adds nothing.
  CellRecorder recorder;
  int pricedAboveZero = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (int caseIdx = 0; caseIdx < 10; ++caseIdx) {
      const Instance inst = testing::corpusInstance(seed, caseIdx);
      if (inst.numMachines() < 2) continue;
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " case=" + std::to_string(caseIdx));
      ShardOptions options;
      options.cells = 2 + caseIdx % 3;
      ShardCoordinator coordinator(recorder.solver(), options);
      coordinator.solve(inst, SolveContext{});
      double sum = 0.0;
      for (const CellCall& call : recorder.take()) {
        if (call.price >= 0.0) sum += call.budget;
      }
      EXPECT_LE(sum, inst.energyBudget());
      EXPECT_EQ(sum, coordinator.lastStats().budgetAssigned);
      if (coordinator.lastStats().finalPrice > 0.0) ++pricedAboveZero;
    }
  }
  // The price loop ran, rather than λ = 0 funding everything, somewhere.
  EXPECT_GT(pricedAboveZero, 0);
}

TEST(ShardCoordinator, CellSolvesCarryTheAcceptedPriceOrNone) {
  // energyPrice annotates every cell solve: the first pass solves each cell
  // that owns a task once, at the accepted λ; a top-up re-solve carries -1.
  CellRecorder recorder;
  int topUps = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (int caseIdx = 0; caseIdx < 10; ++caseIdx) {
      const Instance inst = testing::corpusInstance(seed, caseIdx);
      if (inst.numMachines() < 2) continue;
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " case=" + std::to_string(caseIdx));
      ShardOptions options;
      options.cells = 2 + caseIdx % 3;
      ShardCoordinator coordinator(recorder.solver(), options);
      coordinator.solve(inst, SolveContext{});
      const ShardStats& stats = coordinator.lastStats();
      int priced = 0;
      int unpriced = 0;
      for (const CellCall& call : recorder.take()) {
        if (call.price >= 0.0) {
          ++priced;
          EXPECT_EQ(call.price, stats.finalPrice);
        } else {
          ++unpriced;
          EXPECT_EQ(call.price, -1.0);
        }
      }
      EXPECT_EQ(priced, nonEmptyCells(inst, coordinator));
      EXPECT_EQ(unpriced, stats.topUpCells);
      topUps += stats.topUpCells;
    }
  }
  EXPECT_GT(topUps, 0);
}

TEST(ShardCoordinator, PreExpiredTokenCancelsEveryCell) {
  // A token that expired before the solve stops every cell solve, on the
  // single-cell path and across cells; the merged outcome is cancelled and
  // no top-up runs after a cancelled pass.
  const Instance inst = testing::randomInstance(5, 40, 8, 0.35, 0.3);
  const CancelToken expired(0.0);
  SolveContext context;
  context.cancel = &expired;
  for (const int cells : {1, 4}) {
    SCOPED_TRACE("cells=" + std::to_string(cells));
    ShardOptions options;
    options.cells = cells;
    ShardCoordinator coordinator(innerSolver(), options);
    const SolveOutcome outcome = coordinator.solve(inst, context);
    EXPECT_TRUE(outcome.cancelled());
    EXPECT_EQ(coordinator.lastStats().cancelledCells,
              nonEmptyCells(inst, coordinator));
    EXPECT_EQ(coordinator.lastStats().topUpCells, 0);
  }
}

TEST(ShardedSolver, PooledFractionalMergeMatchesSerial) {
  // A fractional inner solver takes the merge's fractional branch; cells
  // solved on the pool must merge to the serial schedule bit for bit.
  const Instance inst = testing::randomInstance(37, 48, 8, 0.35, 0.25);
  ShardOptions options;
  options.cells = 3;
  const ShardedSolver serial(innerSolver("fr-opt"), options);
  const SolveOutcome a = serial.solve(inst, SolveContext{});
  ThreadPool pool(3);
  SolveContext pooled;
  pooled.pool = &pool;
  const ShardedSolver parallel(innerSolver("fr-opt"), options);
  const SolveOutcome b = parallel.solve(inst, pooled);
  ASSERT_TRUE(a.fractional.has_value());
  ASSERT_TRUE(b.fractional.has_value());
  EXPECT_FALSE(a.schedule.has_value());
  EXPECT_EQ(a.totalAccuracy, b.totalAccuracy);
  EXPECT_EQ(a.energy, b.energy);
  for (int j = 0; j < inst.numTasks(); ++j) {
    for (int r = 0; r < inst.numMachines(); ++r) {
      EXPECT_EQ(a.fractional->at(j, r), b.fractional->at(j, r));
    }
  }
}

}  // namespace
}  // namespace dsct::shard
