// Fault-injection layer: deterministic event streams (FaultTrace) and the
// crash/straggler-aware schedule execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "sched/approx.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "tests/test_support.h"
#include "util/check.h"
#include "util/rng.h"

namespace dsct {
namespace {

using testing::randomInstance;
using testing::tinyInstance;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Trace where machine 0 has the given windows and machine 1 is fault-free
/// (tinyInstance has two machines).
sim::FaultTrace oneMachineTrace(std::vector<sim::FaultInterval> down,
                                std::vector<sim::FaultInterval> slow = {},
                                double slowFactor = 1.0) {
  return sim::FaultTrace({std::move(down), {}}, {std::move(slow), {}},
                         slowFactor, {}, {}, 2);
}

// ---------------------------------------------------------- FaultTrace ---

TEST(FaultTrace, DisabledIsTransparent) {
  const sim::FaultTrace trace;
  EXPECT_FALSE(trace.enabled());
  EXPECT_TRUE(trace.aliveAt(0, 0.0));
  EXPECT_TRUE(trace.aliveAt(5, 123.0));
  EXPECT_EQ(trace.nextCrashAt(0, 0.0), kInf);
  EXPECT_DOUBLE_EQ(trace.effectiveSeconds(3, 1.0, 4.0), 3.0);
  EXPECT_DOUBLE_EQ(trace.budgetFactor(7), 1.0);
  EXPECT_FALSE(trace.policyFailureInjected(0));
}

TEST(FaultTrace, AliveAndNextCrashFollowIntervals) {
  const auto trace = oneMachineTrace({{2.0, 3.0}, {5.0, 6.5}});
  EXPECT_TRUE(trace.aliveAt(0, 0.0));
  EXPECT_TRUE(trace.aliveAt(0, 1.999));
  EXPECT_FALSE(trace.aliveAt(0, 2.0));
  EXPECT_FALSE(trace.aliveAt(0, 2.999));
  EXPECT_TRUE(trace.aliveAt(0, 3.0));  // half-open [start, end)
  EXPECT_FALSE(trace.aliveAt(0, 6.0));
  EXPECT_TRUE(trace.aliveAt(0, 100.0));
  EXPECT_DOUBLE_EQ(trace.nextCrashAt(0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(trace.nextCrashAt(0, 2.5), 2.5);  // already down
  EXPECT_DOUBLE_EQ(trace.nextCrashAt(0, 3.0), 5.0);
  EXPECT_EQ(trace.nextCrashAt(0, 6.5), kInf);
}

TEST(FaultTrace, EffectiveSecondsScalesStragglerOverlap) {
  const auto trace = oneMachineTrace({}, {{1.0, 3.0}}, 0.25);
  // No overlap.
  EXPECT_DOUBLE_EQ(trace.effectiveSeconds(0, 3.0, 5.0), 2.0);
  // Fully inside the window: 1 s at factor 0.25.
  EXPECT_DOUBLE_EQ(trace.effectiveSeconds(0, 1.5, 2.5), 0.25);
  // Partial overlap [0.5, 1.5]: 0.5 normal + 0.5 slowed.
  EXPECT_DOUBLE_EQ(trace.effectiveSeconds(0, 0.5, 1.5), 0.5 + 0.5 * 0.25);
}

TEST(FaultTrace, GeneratedTraceIsDeterministicAndClipped) {
  sim::FaultOptions opt;
  opt.enabled = true;
  opt.seed = 99;
  opt.mtbfSeconds = 3.0;
  opt.mttrSeconds = 1.0;
  opt.slowdownMtbfSeconds = 2.0;
  opt.slowdownMeanSeconds = 0.5;
  opt.slowdownFactor = 0.5;
  opt.budgetShockProbability = 0.4;
  opt.budgetShockFactor = 0.3;
  const auto a = sim::FaultTrace::generate(3, 50.0, 20, opt);
  const auto b = sim::FaultTrace::generate(3, 50.0, 20, opt);
  EXPECT_EQ(a.numMachines(), 3);
  int shocked = 0;
  for (long long e = 0; e < 20; ++e) {
    EXPECT_DOUBLE_EQ(a.budgetFactor(e), b.budgetFactor(e));
    EXPECT_TRUE(a.budgetFactor(e) == 1.0 || a.budgetFactor(e) == 0.3);
    if (a.budgetFactor(e) == 0.3) ++shocked;
  }
  EXPECT_GT(shocked, 0);
  for (int r = 0; r < 3; ++r) {
    ASSERT_EQ(a.downtime(r).size(), b.downtime(r).size());
    EXPECT_FALSE(a.downtime(r).empty());  // MTBF 3 over 50 s: crashes happen
    double prevEnd = 0.0;
    for (const auto& w : a.downtime(r)) {
      EXPECT_GE(w.start, prevEnd);
      EXPECT_LE(w.end, 50.0);
      prevEnd = w.end;
    }
  }
  // Different machines get independent streams.
  EXPECT_NE(a.downtime(0).front().start, a.downtime(1).front().start);
}

TEST(FaultTrace, RejectsUnsortedIntervalsAndBadFactor) {
  EXPECT_THROW(oneMachineTrace({{3.0, 2.0}}), CheckError);
  EXPECT_THROW(oneMachineTrace({{2.0, 4.0}, {3.0, 5.0}}), CheckError);
  EXPECT_THROW(sim::FaultTrace({{}}, {{}}, 0.0, {}, {}, 2), CheckError);
  EXPECT_THROW(sim::FaultTrace({{}}, {{}}, 1.5, {}, {}, 2), CheckError);
}

TEST(FaultTrace, GenerateValidatesEachOptionFieldLoudly) {
  // Every degenerate field is rejected at trace-sampling time, one
  // regression per field (the pre-validation driver silently sampled an
  // empty or nonsensical trace instead).
  sim::FaultOptions good;
  good.enabled = true;
  good.mtbfSeconds = 3.0;
  good.mttrSeconds = 1.0;
  const auto generate = [](const sim::FaultOptions& o) {
    return sim::FaultTrace::generate(2, 10.0, 20, o);
  };
  EXPECT_NO_THROW(generate(good));
  {
    auto o = good;
    o.mtbfSeconds = -1.0;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.mttrSeconds = -0.5;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.mttrSeconds = 0.0;  // crashes enabled → repair time must be positive
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.slowdownMtbfSeconds = -2.0;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.slowdownMeanSeconds = -1.0;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.slowdownMtbfSeconds = 2.0;
    o.slowdownMeanSeconds = 0.0;  // stragglers enabled → mean must be > 0
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.slowdownFactor = 0.0;  // validated even with stragglers disabled
    EXPECT_THROW(generate(o), CheckError);
    o.slowdownFactor = 1.5;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.budgetShockProbability = -0.1;
    EXPECT_THROW(generate(o), CheckError);
    o.budgetShockProbability = 1.1;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.budgetShockFactor = -0.3;
    EXPECT_THROW(generate(o), CheckError);
  }
  {
    auto o = good;
    o.maxRetries = -1;
    EXPECT_THROW(generate(o), CheckError);
  }
}

TEST(FaultTrace, InjectedPolicyFailures) {
  const sim::FaultTrace trace({{}}, {{}}, 1.0, {}, {7, 2}, 1);
  EXPECT_TRUE(trace.policyFailureInjected(2));
  EXPECT_TRUE(trace.policyFailureInjected(7));
  EXPECT_FALSE(trace.policyFailureInjected(3));
}

// --------------------------------------------------- faulty execution ----

/// Every field of two executions agrees bit for bit.
void expectSameExecution(const sim::ExecutionResult& a,
                         const sim::ExecutionResult& b) {
  ASSERT_EQ(a.executions.size(), b.executions.size());
  for (std::size_t j = 0; j < a.executions.size(); ++j) {
    const sim::TaskExecution& x = a.executions[j];
    const sim::TaskExecution& y = b.executions[j];
    EXPECT_EQ(x.task, y.task) << "task " << j;
    EXPECT_EQ(x.machine, y.machine) << "task " << j;
    EXPECT_EQ(x.start, y.start) << "task " << j;
    EXPECT_EQ(x.finish, y.finish) << "task " << j;
    EXPECT_EQ(x.flops, y.flops) << "task " << j;
    EXPECT_EQ(x.accuracy, y.accuracy) << "task " << j;
    EXPECT_EQ(x.executed, y.executed) << "task " << j;
    EXPECT_EQ(x.deadlineMet, y.deadlineMet) << "task " << j;
    EXPECT_EQ(x.interrupted, y.interrupted) << "task " << j;
  }
  EXPECT_EQ(a.machineBusySeconds, b.machineBusySeconds);
  EXPECT_EQ(a.totalEnergy, b.totalEnergy);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.totalAccuracy, b.totalAccuracy);
  EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
  EXPECT_EQ(a.interruptions, b.interruptions);
}

TEST(FaultExecution, InactiveContextMatchesPlainExecution) {
  // Contexts that inject nothing reproduce the plain execution bit for
  // bit: a disabled trace behind an offset and a machine map, an enabled
  // trace whose windows all lie outside the timeline, and batteries that
  // never run dry.
  const Instance inst = randomInstance(77, 10, 3);
  const IntegralSchedule s = solveApprox(inst).schedule;
  const auto plain = sim::executeSchedule(inst, s);
  const sim::FaultTrace disabled;
  const sim::FaultTrace faraway({{{100.0, 101.0}}, {}, {}},
                                {{}, {{50.0, 60.0}}, {}}, 0.5, {}, {}, 2);
  std::vector<sim::FaultContext> contexts(4);
  contexts[1].trace = &disabled;
  contexts[1].timeOffset = 7.25;
  contexts[1].machineMap = {2, 1, 0};
  contexts[2].trace = &faraway;
  contexts[2].machineMap = {1, 2, 0};
  contexts[3].energyCutSeconds.assign(3, kInf);
  for (std::size_t c = 0; c < contexts.size(); ++c) {
    SCOPED_TRACE("context " + std::to_string(c));
    const auto viaCtx = sim::executeSchedule(inst, s, contexts[c]);
    expectSameExecution(plain, viaCtx);
    EXPECT_EQ(viaCtx.interruptions, 0);
  }
}

TEST(FaultExecution, CrashCutsRunningTaskAndDropsRest) {
  const Instance inst = tinyInstance(1e9);
  // Machine 0 (2 TFLOPS, 40 W): task 0 runs [0, 0.3), task 1 runs [0.3, 0.7).
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  const auto trace = oneMachineTrace({{0.5, 2.0}});
  sim::FaultContext ctx;
  ctx.trace = &trace;
  const auto exec = sim::executeSchedule(inst, s, ctx);
  // Task 0 completed before the crash.
  EXPECT_FALSE(exec.executions[0].interrupted);
  EXPECT_NEAR(exec.executions[0].flops, 0.6, 1e-12);
  // Task 1 cut at t = 0.5 after 0.2 s of work.
  EXPECT_TRUE(exec.executions[1].interrupted);
  EXPECT_TRUE(exec.executions[1].executed);
  EXPECT_NEAR(exec.executions[1].finish, 0.5, 1e-12);
  EXPECT_NEAR(exec.executions[1].flops, 0.4, 1e-12);
  EXPECT_EQ(exec.interruptions, 1);
  // Energy covers only the 0.5 s actually run.
  EXPECT_NEAR(exec.totalEnergy, 0.5 * inst.machine(0).power(), 1e-9);
}

TEST(FaultExecution, CrashBeforeStartLeavesTaskUnexecuted) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  const auto trace = oneMachineTrace({{0.1, 5.0}});
  sim::FaultContext ctx;
  ctx.trace = &trace;
  const auto exec = sim::executeSchedule(inst, s, ctx);
  // Task 0 cut mid-flight at 0.1; task 1 never starts.
  EXPECT_TRUE(exec.executions[0].interrupted);
  EXPECT_NEAR(exec.executions[0].flops, 0.2, 1e-12);
  EXPECT_TRUE(exec.executions[1].interrupted);
  EXPECT_FALSE(exec.executions[1].executed);
  EXPECT_DOUBLE_EQ(exec.executions[1].flops, 0.0);
  // Floor accuracy is retained for the never-started task.
  EXPECT_DOUBLE_EQ(exec.executions[1].accuracy,
                   inst.task(1).accuracy.value(0.0));
  EXPECT_EQ(exec.interruptions, 2);
}

TEST(FaultExecution, MachineDownAtOffsetExecutesNothing) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  const auto trace = oneMachineTrace({{10.0, 20.0}});
  sim::FaultContext ctx;
  ctx.trace = &trace;
  ctx.timeOffset = 12.0;  // epoch starts inside the downtime window
  const auto exec = sim::executeSchedule(inst, s, ctx);
  EXPECT_EQ(exec.interruptions, 2);
  EXPECT_DOUBLE_EQ(exec.totalEnergy, 0.0);
  EXPECT_FALSE(exec.executions[0].executed);
  EXPECT_FALSE(exec.executions[1].executed);
}

TEST(FaultExecution, StragglerShrinksFlopsNotOccupancy) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, -1}, {0.4, 0.0});
  // Slowdown covers [0.2, 0.6) at factor 0.5; task runs [0, 0.4).
  const auto trace = oneMachineTrace({}, {{0.2, 0.6}}, 0.5);
  sim::FaultContext ctx;
  ctx.trace = &trace;
  const auto exec = sim::executeSchedule(inst, s, ctx);
  // Effective seconds: 0.2 + 0.2·0.5 = 0.3 → 0.6 TFLOP at 2 TFLOPS.
  EXPECT_NEAR(exec.executions[0].flops, 0.6, 1e-12);
  EXPECT_FALSE(exec.executions[0].interrupted);
  EXPECT_NEAR(exec.executions[0].finish, 0.4, 1e-12);  // slot unchanged
  // Full slot is billed.
  EXPECT_NEAR(exec.totalEnergy, 0.4 * inst.machine(0).power(), 1e-9);
}

TEST(FaultExecution, MachineMapRedirectsTraceLookups) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  // Trace machine 0 crashes immediately, trace machine 1 never does. With
  // the swapped map, instance machine 0 follows trace machine 1 and
  // survives (instance machine 1 runs nothing here anyway).
  const sim::FaultTrace trace({{{0.0, 9.0}}, {}}, {{}, {}}, 1.0, {}, {}, 2);
  sim::FaultContext ctx;
  ctx.trace = &trace;
  ctx.machineMap = {1, 0};
  const auto exec = sim::executeSchedule(inst, s, ctx);
  EXPECT_EQ(exec.interruptions, 0);
  EXPECT_TRUE(exec.executions[0].executed);
  EXPECT_TRUE(exec.executions[1].executed);
}

TEST(FaultExecution, BatteryCutInterruptsLikeACrash) {
  const Instance inst = tinyInstance(1e9);
  // Machine 0 runs task 0 over [0, 0.3) and task 1 over [0.3, 0.7).
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  sim::FaultContext battery;
  battery.energyCutSeconds = {0.5, kInf};
  const auto cut = sim::executeSchedule(inst, s, battery);
  EXPECT_FALSE(cut.executions[0].interrupted);
  EXPECT_TRUE(cut.executions[1].interrupted);
  EXPECT_TRUE(cut.executions[1].executed);
  EXPECT_NEAR(cut.executions[1].flops, 0.4, 1e-12);
  EXPECT_EQ(cut.interruptions, 1);
  // A crash at the same instant gives the same execution, bit for bit.
  const auto trace = oneMachineTrace({{0.5, 2.0}});
  sim::FaultContext crash;
  crash.trace = &trace;
  expectSameExecution(cut, sim::executeSchedule(inst, s, crash));
}

TEST(FaultExecution, BatteryCutAtASlotBoundary) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  sim::FaultContext ctx;
  ctx.energyCutSeconds = {s.start(1), kInf};  // the instant task 0 ends
  const auto exec = sim::executeSchedule(inst, s, ctx);
  // Task 0 ends exactly at the cut and completes.
  EXPECT_TRUE(exec.executions[0].executed);
  EXPECT_FALSE(exec.executions[0].interrupted);
  EXPECT_EQ(exec.executions[0].flops, 0.3 * inst.machine(0).speed);
  // Task 1 would start at the cut, so it never starts.
  EXPECT_FALSE(exec.executions[1].executed);
  EXPECT_TRUE(exec.executions[1].interrupted);
  EXPECT_EQ(exec.executions[1].machine, 0);
  EXPECT_EQ(exec.executions[1].flops, 0.0);
  EXPECT_EQ(exec.executions[1].accuracy, inst.task(1).accuracy.value(0.0));
  EXPECT_EQ(exec.interruptions, 1);
  EXPECT_EQ(exec.makespan, s.start(1));
  EXPECT_EQ(exec.totalEnergy, 0.3 * inst.machine(0).power());
}

TEST(FaultExecution, EarlierOfCrashAndBatteryCutWins) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  const auto trace = oneMachineTrace({{0.5, 2.0}});
  sim::FaultContext ctx;
  ctx.trace = &trace;
  // The battery runs dry at 0.2 s, before the crash at 0.5 s.
  ctx.energyCutSeconds = {0.2, kInf};
  auto exec = sim::executeSchedule(inst, s, ctx);
  EXPECT_NEAR(exec.executions[0].finish, 0.2, 1e-12);
  EXPECT_NEAR(exec.executions[0].flops, 0.4, 1e-12);
  EXPECT_TRUE(exec.executions[0].interrupted);
  EXPECT_FALSE(exec.executions[1].executed);
  EXPECT_EQ(exec.interruptions, 2);
  // The battery would last until 0.6 s; the crash at 0.5 s comes first.
  ctx.energyCutSeconds = {0.6, kInf};
  exec = sim::executeSchedule(inst, s, ctx);
  EXPECT_FALSE(exec.executions[0].interrupted);
  EXPECT_NEAR(exec.executions[1].finish, 0.5, 1e-12);
  EXPECT_TRUE(exec.executions[1].interrupted);
  EXPECT_EQ(exec.interruptions, 1);
}

TEST(FaultExecution, BatteryCutsArePerMachineAndInLocalTime) {
  const Instance inst = tinyInstance(1e9);
  // Task 0 on machine 0 over [0, 0.3), task 1 on machine 1 over [0, 0.4).
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 1}, {0.3, 0.4});
  sim::FaultContext ctx;
  ctx.energyCutSeconds = {0.1, kInf};
  const auto exec = sim::executeSchedule(inst, s, ctx);
  EXPECT_TRUE(exec.executions[0].interrupted);
  EXPECT_NEAR(exec.executions[0].finish, 0.1, 1e-12);
  EXPECT_FALSE(exec.executions[1].interrupted);
  EXPECT_EQ(exec.executions[1].finish, 0.4);
  EXPECT_EQ(exec.executions[1].flops, 0.4 * inst.machine(1).speed);
  // Cut instants are local: an epoch offset does not move them.
  ctx.timeOffset = 50.0;
  expectSameExecution(exec, sim::executeSchedule(inst, s, ctx));
}

TEST(FaultExecution, BatteryCutsMustCoverEveryMachine) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 1}, {0.3, 0.4});
  sim::FaultContext ctx;
  ctx.energyCutSeconds = {0.5};  // tinyInstance has two machines
  EXPECT_THROW(sim::executeSchedule(inst, s, ctx), CheckError);
}

TEST(FaultExecution, TimeOffsetMapsTraceWindowsToLocalTime) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  // Absolute windows: slowed over [10.1, 10.2) at factor 0.5, down from
  // 10.5. The epoch starts at absolute 10.
  const auto trace = oneMachineTrace({{10.5, 12.0}}, {{10.1, 10.2}}, 0.5);
  sim::FaultContext ctx;
  ctx.trace = &trace;
  ctx.timeOffset = 10.0;
  const auto exec = sim::executeSchedule(inst, s, ctx);
  // Task 0 loses 0.1 s · 0.5 to the straggler window: 0.25 s of work.
  EXPECT_NEAR(exec.executions[0].flops, 0.25 * 2.0, 1e-12);
  EXPECT_FALSE(exec.executions[0].interrupted);
  // Task 1 is cut at local 0.5 after 0.2 s.
  EXPECT_NEAR(exec.executions[1].finish, 0.5, 1e-12);
  EXPECT_NEAR(exec.executions[1].flops, 0.2 * 2.0, 1e-12);
  EXPECT_TRUE(exec.executions[1].interrupted);
}

TEST(FaultExecution, StragglerLossOnACutTaskCountsOnlyTheTimeItRan) {
  const Instance inst = tinyInstance(1e9);
  const IntegralSchedule s = IntegralSchedule::build(inst, {0, 0}, {0.3, 0.4});
  // Slowed over [0.4, 1.0) at factor 0.5, down from 0.5: task 1 runs
  // [0.3, 0.5) and is slowed only over [0.4, 0.5).
  const auto trace = oneMachineTrace({{0.5, 2.0}}, {{0.4, 1.0}}, 0.5);
  sim::FaultContext ctx;
  ctx.trace = &trace;
  const auto exec = sim::executeSchedule(inst, s, ctx);
  EXPECT_TRUE(exec.executions[1].interrupted);
  EXPECT_NEAR(exec.executions[1].flops, (0.2 - 0.1 * 0.5) * 2.0, 1e-12);
  // The whole 0.5 s run is billed, slowed or not.
  EXPECT_NEAR(exec.totalEnergy, 0.5 * inst.machine(0).power(), 1e-9);
}

// Property: under a sampled crash/straggler trace, a permuted machine map
// and battery cuts, every machine stops at the earlier of its next crash
// and its cut, nothing runs longer or delivers more than in the plain
// execution, and the totals agree with the per-task records.
class FaultExecutionInvariants : public ::testing::TestWithParam<int> {};

TEST_P(FaultExecutionInvariants, HoldUnderSampledFaults) {
  const std::uint64_t seed =
      deriveSeed(9091, static_cast<std::uint64_t>(GetParam()));
  const int m = 3;
  const Instance inst = randomInstance(seed, 14, m, 0.01, 0.5, 0.1, 2.0);
  Rng rng(deriveSeed(seed, 1));
  // A random schedule, not a solver's: some tasks dropped, some late.
  std::vector<int> machineOf;
  std::vector<double> duration;
  for (int j = 0; j < inst.numTasks(); ++j) {
    machineOf.push_back(rng.uniformInt(-1, m - 1));
    duration.push_back(rng.uniformInt(0, 4) == 0 ? 0.0
                                                 : rng.uniform(0.01, 0.6));
  }
  const IntegralSchedule s = IntegralSchedule::build(inst, machineOf, duration);

  sim::FaultOptions options;
  options.enabled = true;
  options.seed = deriveSeed(seed, 2);
  options.mtbfSeconds = 1.5;
  options.mttrSeconds = 0.5;
  options.slowdownMtbfSeconds = 0.6;
  options.slowdownMeanSeconds = 0.3;
  options.slowdownFactor = 0.4;
  const auto trace = sim::FaultTrace::generate(m, 40.0, 1, options);
  sim::FaultContext ctx;
  ctx.trace = &trace;
  ctx.timeOffset = rng.uniform(0.0, 30.0);
  ctx.machineMap = {1, 2, 0};
  for (int r = 0; r < m; ++r) {
    ctx.energyCutSeconds.push_back(rng.uniformInt(0, 1) == 0
                                       ? kInf
                                       : rng.uniform(0.0, s.machineLoad(r)));
  }

  const auto plain = sim::executeSchedule(inst, s);
  const auto exec = sim::executeSchedule(inst, s, ctx);
  std::vector<double> stop(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    stop[static_cast<std::size_t>(r)] =
        std::min(trace.nextCrashAt(ctx.traceMachine(r), ctx.timeOffset) -
                     ctx.timeOffset,
                 ctx.cutSeconds(r));
  }

  int interrupted = 0;
  int misses = 0;
  double makespan = 0.0;
  double accuracy = 0.0;
  for (int j = 0; j < inst.numTasks(); ++j) {
    SCOPED_TRACE("task " + std::to_string(j));
    const sim::TaskExecution& e = exec.executions[static_cast<std::size_t>(j)];
    const sim::TaskExecution& p = plain.executions[static_cast<std::size_t>(j)];
    const int r = s.machineOf(j);
    EXPECT_EQ(e.machine, r);
    EXPECT_EQ(p.machine, r);
    EXPECT_GE(e.accuracy, inst.task(j).accuracy.value(0.0));
    EXPECT_LE(e.accuracy, p.accuracy + 1e-12);
    accuracy += e.accuracy;
    if (e.interrupted) ++interrupted;
    if (!e.deadlineMet) ++misses;
    if (r < 0) {
      EXPECT_FALSE(e.executed);
      EXPECT_FALSE(e.interrupted);
      continue;
    }
    const double machineStop = stop[static_cast<std::size_t>(r)];
    if (p.start >= machineStop) {
      // Never starts: the machine stopped first.
      EXPECT_FALSE(e.executed);
      EXPECT_TRUE(e.interrupted);
      EXPECT_EQ(e.flops, 0.0);
      continue;
    }
    ASSERT_TRUE(e.executed);
    EXPECT_EQ(e.start, p.start);
    EXPECT_EQ(e.interrupted, p.finish > machineStop);
    EXPECT_EQ(e.finish, std::min(p.finish, machineStop));
    EXPECT_LE(e.flops, p.flops * (1.0 + 1e-12));
    if (!e.interrupted &&
        trace.slowdownLossSeconds(ctx.traceMachine(r),
                                  ctx.timeOffset + e.start,
                                  ctx.timeOffset + e.finish) == 0.0) {
      EXPECT_EQ(e.flops, p.flops);  // untouched by any fault
    }
    EXPECT_EQ(e.deadlineMet, e.finish <= inst.task(j).deadline + 1e-9);
    makespan = std::max(makespan, e.finish);
  }
  EXPECT_EQ(exec.interruptions, interrupted);
  EXPECT_EQ(exec.deadlineMisses, misses);
  EXPECT_LE(exec.deadlineMisses, plain.deadlineMisses);
  EXPECT_EQ(exec.makespan, makespan);
  EXPECT_EQ(exec.totalAccuracy, accuracy);
  EXPECT_LE(exec.totalAccuracy, plain.totalAccuracy + 1e-9);

  double energy = 0.0;
  for (int r = 0; r < m; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_LE(exec.machineBusySeconds[i], plain.machineBusySeconds[i] + 1e-12);
    energy += exec.machineBusySeconds[i] * inst.machine(r).power();
  }
  EXPECT_NEAR(exec.totalEnergy, energy, 1e-9 * std::max(1.0, energy));
  EXPECT_LE(exec.totalEnergy, plain.totalEnergy + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, FaultExecutionInvariants,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace dsct
