// Cooperative cancellation and the async double-buffered serving pipeline:
// async-off stays bit-identical to the synchronous driver, a deadline-missing
// primary is cancelled mid-solve (not discarded post hoc), fallbacks receive
// the remaining epoch budget, and the incident log records timeouts with
// their attempt depth and elapsed seconds. An unguarded run, sync or async,
// propagates a solver exception and executes its schedule unvalidated.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "accuracy/fit.h"
#include "baselines/edf_nocompress.h"
#include "core/solver_api.h"
#include "core/solver_registry.h"
#include "sched/schedule.h"
#include "sim/serving.h"
#include "tests/serving_support.h"
#include "util/cancel.h"
#include "workload/gpu_catalog.h"

namespace dsct {
namespace {

using testing::expectSameServing;
using testing::withoutAsyncEpochs;

// Shared fake clock, advanced only by the test solvers below. Atomic so the
// async pipeline thread and the driver can read it concurrently; all steps
// are multiples of 1/64 s, so every elapsed-time comparison is exact in
// binary floating point.
std::atomic<double> g_clock{0.0};

double fakeClock() { return g_clock.load(std::memory_order_relaxed); }

void advanceClock(double dt) {
  double cur = g_clock.load(std::memory_order_relaxed);
  while (!g_clock.compare_exchange_weak(cur, cur + dt,
                                        std::memory_order_relaxed)) {
  }
}

IntegralSchedule emptySchedule(const Instance& inst) {
  return IntegralSchedule::build(
      inst, std::vector<int>(static_cast<std::size_t>(inst.numTasks()), -1),
      std::vector<double>(static_cast<std::size_t>(inst.numTasks()), 0.0));
}

// Test-only solvers, registered once per process:
//  - test-sleepy: burns fake-clock time in 1/64 s slices until its token
//    expires, then returns kCancelled — a deterministic stand-in for a solve
//    that misses the epoch deadline. Without a token it returns an empty
//    schedule immediately.
//  - test-burn-throw: burns 1/32 s of fake-clock time, then throws — a
//    primary that fails after consuming half of a 1/16 s epoch budget.
//  - test-late: stacks every task on machine 0 for its whole relative
//    deadline — a schedule that misses deadlines and overdraws the budget,
//    which the validator rejects.
void registerTestSolvers() {
  static const bool once = [] {
    SolverCapabilities caps;
    caps.integral = true;
    SolverRegistry::instance().add(makeSolver(
        "test-sleepy", "Sleepy (runs until cancelled)", caps,
        [](const Instance& inst, const SolveContext& ctx) {
          SolveOutcome out;
          for (int i = 0; i < 100000 && ctx.cancel != nullptr; ++i) {
            advanceClock(1.0 / 64.0);
            if (ctx.cancel->stopRequested()) {
              out.status = OutcomeStatus::kCancelled;
              return out;  // cancelled mid-solve: no schedule to return
            }
          }
          out.schedule = emptySchedule(inst);
          return out;
        }));
    SolverRegistry::instance().add(makeSolver(
        "test-burn-throw", "Burns half the budget, then throws", caps,
        [](const Instance&, const SolveContext&) -> SolveOutcome {
          advanceClock(1.0 / 32.0);
          throw std::runtime_error("injected solver failure");
        }));
    SolverRegistry::instance().add(makeSolver(
        "test-late", "Stacks every task on one machine", caps,
        [](const Instance& inst, const SolveContext&) {
          const auto n = static_cast<std::size_t>(inst.numTasks());
          std::vector<double> durations(n);
          for (std::size_t j = 0; j < n; ++j) {
            durations[j] = inst.task(static_cast<int>(j)).deadline;
          }
          SolveOutcome out;
          out.schedule = IntegralSchedule::build(
              inst, std::vector<int>(n, 0), std::move(durations));
          return out;
        }));
    return true;
  }();
  (void)once;
}

sim::ServingOptions baseOptions() {
  sim::ServingOptions o;
  o.arrivalRatePerSecond = 18.0;
  o.horizonSeconds = 5.0;
  o.epochSeconds = 0.5;
  o.relDeadlineLo = 0.4;
  o.relDeadlineHi = 2.5;
  o.energyBudgetPerEpoch = 40.0;
  o.seed = 20240807;
  return o;
}

Instance tinyInstance() {
  std::vector<Task> tasks;
  for (int i = 0; i < 3; ++i) {
    // Appending avoids a libstdc++ -Wrestrict false positive that GCC 12
    // reports for `"t" + std::to_string(i)`.
    std::string name = "t";
    name += std::to_string(i);
    tasks.push_back(Task{1.0 + 0.25 * i,
                         makePaperAccuracy(1e-3, 0.82, 0.5 + 0.3 * i, 5),
                         std::move(name)});
  }
  return Instance(std::move(tasks), machinesFromCatalog({"T4", "V100"}), 20.0);
}

// Every registered solver polls the token cooperatively: a pre-expired
// deadline makes each of them return kCancelled instead of completing a
// solve whose result would be discarded.
TEST(Cancellation, AllRegisteredSolversObserveExpiredToken) {
  double now = 0.0;
  const CancelToken expired(0.0, [&now]() { return now; });
  SolveContext ctx;
  ctx.cancel = &expired;
  const Instance inst = tinyInstance();
  for (const std::string name : {"approx", "fr-opt", "edf", "edf3",
                                 "levels-opt", "fr-lp", "mip-warm",
                                 "mip-cold"}) {
    const SolveOutcome out =
        SolverRegistry::instance().resolve(name).solve(inst, ctx);
    EXPECT_TRUE(out.cancelled()) << name;
    EXPECT_EQ(out.status, OutcomeStatus::kCancelled) << name;
  }
}

TEST(Cancellation, ExplicitOptionTokenWinsOverContext) {
  // A token passed via the option structs directly keeps working when the
  // context carries none (the registry only injects context.cancel into a
  // null option slot).
  CancelToken token;
  token.requestCancel();
  const Instance inst = tinyInstance();
  const auto res = solveEdfNoCompression(inst, &token);
  EXPECT_TRUE(res.cancelled);
}

// Async serving with no solve budget is bit-identical to the synchronous
// driver on the default (overlap-eligible) path: same requests, energy,
// accuracy, and an empty incident log — only asyncEpochs differs.
TEST(AsyncServing, DefaultPathMatchesSync) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  const auto sync = sim::runServing(machines, std::string("approx"),
                                    baseOptions());
  auto asyncOptions = baseOptions();
  asyncOptions.asyncServing = true;
  const auto async =
      sim::runServing(machines, std::string("approx"), asyncOptions);
  expectSameServing(sync, withoutAsyncEpochs(async));
  EXPECT_EQ(sync.asyncEpochs, 0);
  EXPECT_EQ(async.asyncEpochs, async.epochs);
}

// Backlog carry-over suppresses the execution/solve overlap (execution
// feeds the next batch) but solves still run on the pipeline thread; the
// results stay bit-identical.
TEST(AsyncServing, BacklogPathMatchesSync) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = baseOptions();
  options.carryBacklog = true;
  const auto sync = sim::runServing(machines, std::string("approx"), options);
  options.asyncServing = true;
  const auto async = sim::runServing(machines, std::string("approx"), options);
  expectSameServing(sync, withoutAsyncEpochs(async));
  EXPECT_EQ(async.asyncEpochs, async.epochs);
}

// Guarded mode (validator on every epoch) with overlap enabled: the chain
// machinery and the double buffer compose without changing results.
TEST(AsyncServing, GuardedValidatedPathMatchesSync) {
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = baseOptions();
  options.validateEpochs = true;
  const auto sync = sim::runServing(machines, std::string("edf3"), options);
  options.asyncServing = true;
  const auto async = sim::runServing(machines, std::string("edf3"), options);
  expectSameServing(sync, withoutAsyncEpochs(async));
  EXPECT_EQ(async.asyncEpochs, async.epochs);
}

// Admission control feeds execution back into the next batch, so async
// serving keeps the solves on the pipeline thread without the overlap; the
// shed requests and their incidents match the synchronous run.
TEST(AsyncServing, AdmissionShedPathMatchesSync) {
  const auto machines = machinesFromCatalog({"T4"});
  auto options = baseOptions();
  options.arrivalRatePerSecond = 40.0;
  options.admissionLoadFactor = 3.0;
  const auto sync = sim::runServing(machines, std::string("approx"), options);
  options.asyncServing = true;
  const auto async = sim::runServing(machines, std::string("approx"), options);
  expectSameServing(sync, withoutAsyncEpochs(async));
  EXPECT_GT(async.shed, 0);
  EXPECT_EQ(async.asyncEpochs, async.epochs);
}

// The acceptance scenario: a primary that would miss the epoch deadline is
// cancelled mid-solve by its token (it observes the token and returns
// kCancelled — the solve is not completed and then discarded), the epoch is
// served by the fallback, and the incident log records the timeout with its
// elapsed seconds and attempt depth.
void runTimeoutFallbackScenario(bool asyncServing) {
  registerTestSolvers();
  g_clock.store(0.0);
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = baseOptions();
  options.horizonSeconds = 2.0;
  options.clock = fakeClock;
  options.epochTimeLimitSeconds = 1.0 / 16.0;  // 4 sleepy slices, exact
  options.asyncServing = asyncServing;
  const auto s =
      sim::runServing(machines, std::string("test-sleepy"), options);

  ASSERT_GT(s.epochs, 0);
  // Every epoch: the primary blew the budget and edf3 served the epoch.
  EXPECT_EQ(s.policyTimeouts, s.epochs);
  EXPECT_EQ(s.policyFailures, s.epochs);
  EXPECT_EQ(s.fallbacks, s.epochs);
  EXPECT_GT(s.served, 0);  // the fallback actually served requests
  EXPECT_EQ(s.asyncEpochs, asyncServing ? s.epochs : 0);
  ASSERT_EQ(s.incidents.size(), static_cast<std::size_t>(2 * s.epochs));
  for (int e = 0; e < s.epochs; ++e) {
    const sim::EpochIncident& timeout =
        s.incidents[static_cast<std::size_t>(2 * e)];
    EXPECT_EQ(timeout.kind, sim::IncidentKind::kPolicyTimeout);
    // Payload is the attempt's elapsed solve seconds (the documented
    // semantics — historically misdocumented as "0 otherwise"): the sleepy
    // solver observed its token after exactly the granted 1/16 s.
    EXPECT_DOUBLE_EQ(timeout.value, 1.0 / 16.0);
    EXPECT_EQ(timeout.depth, 0);  // the primary attempt
    const sim::EpochIncident& engaged =
        s.incidents[static_cast<std::size_t>(2 * e + 1)];
    EXPECT_EQ(engaged.kind, sim::IncidentKind::kFallbackEngaged);
    EXPECT_DOUBLE_EQ(engaged.value, 0.0);
    EXPECT_EQ(engaged.depth, 0);
  }
}

TEST(AsyncServing, TimeoutFallsBackWithinEpochBudgetSync) {
  runTimeoutFallbackScenario(false);
}

TEST(AsyncServing, TimeoutFallsBackWithinEpochBudgetAsync) {
  runTimeoutFallbackScenario(true);
}

// Fallback attempts receive the *remaining* epoch budget: after the primary
// burns half of the 1/16 s budget and throws, the first fallback gets a
// token with only the remaining 1/32 s — it is cancelled after exactly that
// long (recorded at depth 1) — and the final fallback, with the budget
// blown, runs unguarded and serves the epoch.
TEST(AsyncServing, FallbacksReceiveRemainingBudget) {
  registerTestSolvers();
  g_clock.store(0.0);
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = baseOptions();
  options.horizonSeconds = 1.0;
  options.clock = fakeClock;
  options.epochTimeLimitSeconds = 1.0 / 16.0;
  options.fallbackChain = {"test-sleepy", "edf3"};
  const auto s =
      sim::runServing(machines, std::string("test-burn-throw"), options);

  ASSERT_GT(s.epochs, 0);
  EXPECT_EQ(s.policyFailures, s.epochs);   // the throwing primary, depth 0
  EXPECT_EQ(s.policyTimeouts, s.epochs);   // the budget-limited fallback
  EXPECT_EQ(s.fallbacks, s.epochs);
  EXPECT_GT(s.served, 0);
  ASSERT_EQ(s.incidents.size(), static_cast<std::size_t>(3 * s.epochs));
  for (int e = 0; e < s.epochs; ++e) {
    const auto* inc = &s.incidents[static_cast<std::size_t>(3 * e)];
    EXPECT_EQ(inc[0].kind, sim::IncidentKind::kPolicyFailure);
    EXPECT_DOUBLE_EQ(inc[0].value, 0.0);  // exception path, primary only
    EXPECT_EQ(inc[1].kind, sim::IncidentKind::kPolicyTimeout);
    EXPECT_DOUBLE_EQ(inc[1].value, 1.0 / 32.0);  // the remaining budget
    EXPECT_EQ(inc[1].depth, 1);                  // first fallback attempt
    EXPECT_EQ(inc[2].kind, sim::IncidentKind::kFallbackEngaged);
  }
}

// A guarded run (here: the validator alone, no solve budget) absorbs a
// primary exception — in async mode one rethrown from the pipeline's future
// — and serves every epoch from the fallback chain.
TEST(AsyncServing, GuardedPrimaryExceptionFallsBack) {
  registerTestSolvers();
  const auto machines = machinesFromCatalog({"T4", "V100"});
  auto options = baseOptions();
  options.validateEpochs = true;
  const auto sync = sim::runServing(machines, "test-burn-throw", options);
  options.asyncServing = true;
  const auto async = sim::runServing(machines, "test-burn-throw", options);
  expectSameServing(sync, withoutAsyncEpochs(async));
  ASSERT_GT(async.epochs, 0);
  EXPECT_EQ(async.asyncEpochs, async.epochs);
  EXPECT_EQ(async.policyFailures, async.epochs);
  EXPECT_EQ(async.fallbacks, async.epochs);
  EXPECT_EQ(async.policyTimeouts, 0);
  EXPECT_GT(async.served, 0);
  ASSERT_EQ(async.incidents.size(), static_cast<std::size_t>(2 * async.epochs));
  for (std::size_t i = 0; i < async.incidents.size(); i += 2) {
    EXPECT_EQ(async.incidents[i].kind, sim::IncidentKind::kPolicyFailure);
    EXPECT_EQ(async.incidents[i + 1].kind,
              sim::IncidentKind::kFallbackEngaged);
  }
}

// An unguarded run (no faults, no validator, no solve budget) is the primary
// attempt alone: a solver exception ends the run instead of engaging the
// fallback chain.
TEST(AsyncServing, UnguardedPrimaryExceptionPropagates) {
  registerTestSolvers();
  const auto machines = machinesFromCatalog({"T4", "V100"});
  for (const bool asyncServing : {false, true}) {
    SCOPED_TRACE(asyncServing ? "async" : "sync");
    auto options = baseOptions();
    options.asyncServing = asyncServing;
    EXPECT_THROW(sim::runServing(machines, "test-burn-throw", options),
                 std::runtime_error);
  }
}

// ... and its schedule executes unvalidated, while validateEpochs makes the
// same run reject it and demote every epoch to the fallback.
TEST(AsyncServing, UnguardedScheduleExecutesUnvalidated) {
  registerTestSolvers();
  const auto machines = machinesFromCatalog({"T4", "V100"});
  for (const bool asyncServing : {false, true}) {
    SCOPED_TRACE(asyncServing ? "async" : "sync");
    auto options = baseOptions();
    options.asyncServing = asyncServing;
    const auto unguarded = sim::runServing(machines, "test-late", options);
    ASSERT_GT(unguarded.epochs, 0);
    const double granted = options.energyBudgetPerEpoch * unguarded.epochs;
    EXPECT_EQ(unguarded.validatorRejections, 0);
    EXPECT_EQ(unguarded.fallbacks, 0);
    EXPECT_TRUE(unguarded.incidents.empty());
    EXPECT_GT(unguarded.deadlineMisses, 0);
    EXPECT_GT(unguarded.totalEnergy, granted);

    options.validateEpochs = true;
    const auto validated = sim::runServing(machines, "test-late", options);
    EXPECT_EQ(validated.epochs, unguarded.epochs);
    EXPECT_EQ(validated.validatorRejections, validated.epochs);
    EXPECT_EQ(validated.fallbacks, validated.epochs);
    EXPECT_LE(validated.totalEnergy, granted * (1.0 + 1e-9));
  }
}

}  // namespace
}  // namespace dsct
