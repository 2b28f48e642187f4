// Golden pins for the cluster executor (sim::executeSchedule).
//
// The serving pins reach ExecutionResult only through ServingStats, and none
// of them cuts a machine on an empty battery. These pin the executor itself
// on seeded schedules drawn from an Rng (not from a solver, so no solver
// change can move them) under five fault contexts. Each row pins
// totalEnergy, totalAccuracy and makespan to 17 digits and an FNV-1a hash
// over the bits of every ExecutionResult field. Update a pin only for a
// deliberate, understood change of the executor's semantics.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "accuracy/fit.h"
#include "sim/cluster.h"
#include "util/rng.h"

namespace dsct {
namespace {

/// Deadlines grow in small steps, so some slots miss. About one task in
/// m + 1 is dropped, one slot in six has zero length, and most durations
/// are multiples of 1/8 s, so prefix sums are exact and finish times tie
/// across machines.
IntegralSchedule goldenSchedule(const Instance& inst, Rng& rng) {
  std::vector<int> machineOf;
  std::vector<double> duration;
  for (int j = 0; j < inst.numTasks(); ++j) {
    machineOf.push_back(rng.uniformInt(-1, inst.numMachines() - 1));
    const int kind = rng.uniformInt(0, 5);
    duration.push_back(kind == 0   ? 0.0
                       : kind == 1 ? rng.uniform(0.01, 0.4)
                                   : 0.125 * rng.uniformInt(1, 4));
  }
  return IntegralSchedule::build(inst, machineOf, duration);
}

Instance goldenInstance(Rng& rng, int n, int m) {
  std::vector<Task> tasks;
  double deadline = 0.05;
  for (int j = 0; j < n; ++j) {
    deadline += rng.uniform(0.0, 0.3);
    tasks.push_back(
        {deadline, makePaperAccuracy(1e-3, 0.82, rng.uniform(0.1, 4.9)), ""});
  }
  std::vector<Machine> machines;
  for (int r = 0; r < m; ++r) {
    machines.push_back({1.0 * (1 << rng.uniformInt(0, 2)),
                        0.05 + 0.01 * rng.uniformInt(0, 3), ""});
  }
  return Instance(std::move(tasks), std::move(machines), 1e9);
}

/// Context 0 is inactive; 1 crashes each machine once inside its timeline
/// through a reversed machineMap; 2 adds two straggler windows per machine;
/// 3 cuts batteries inside a timeline, exactly at a slot start, or never;
/// 4 has machine 0 down across the offset and crashes machine 1.
void makeContext(int kind, const IntegralSchedule& s, int m, Rng& rng,
                 sim::FaultTrace& trace, sim::FaultContext& ctx) {
  std::vector<std::vector<sim::FaultInterval>> down(
      static_cast<std::size_t>(m)), slow = down;
  const double offset = rng.uniform(5.0, 10.0);
  for (int r = 0; r < m; ++r) {
    const std::vector<ScheduledTask>& slots = s.timeline(r);
    const double end = slots.empty() ? 0.0 : slots.back().end();
    const double at = offset + rng.uniform(0.0, end + 0.1);
    const auto i = static_cast<std::size_t>(r);
    if (kind == 1) {
      down[static_cast<std::size_t>(m - 1 - r)].push_back({at, at + 1.0});
      ctx.machineMap.push_back(m - 1 - r);
    } else if (kind == 2) {
      const double to = at + rng.uniform(0.05, 0.5);
      const double next = to + rng.uniform(0.0, 0.4);
      slow[i] = {{at, to}, {next, next + rng.uniform(0.05, 0.5)}};
    } else if (kind == 3 && r % 3 == 1 && !slots.empty()) {
      const int k = rng.uniformInt(0, static_cast<int>(slots.size()) - 1);
      ctx.energyCutSeconds.push_back(slots[static_cast<std::size_t>(k)].start);
    } else if (kind == 3) {
      ctx.energyCutSeconds.push_back(
          r % 3 == 0 ? at - offset : std::numeric_limits<double>::infinity());
    } else if (kind == 4 && r < 2) {
      down[i].push_back({r == 0 ? offset - 1.0 : at, at + 2.0});
    }
  }
  if (kind == 0 || kind == 3) return;
  trace = sim::FaultTrace(std::move(down), std::move(slow), 0.375, {}, {}, 2);
  ctx.trace = &trace;
  ctx.timeOffset = offset;
}

std::uint64_t resultHash(const sim::ExecutionResult& exec) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](auto value) {
    const auto w = std::bit_cast<std::uint64_t>(static_cast<double>(value));
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((w >> (8 * byte)) & 0xffu)) * 0x100000001b3ULL;
    }
  };
  for (const sim::TaskExecution& e : exec.executions) {
    for (const double x : {e.start, e.finish, e.flops, e.accuracy}) add(x);
    for (const int i : {e.task, e.machine, int{e.executed}, int{e.deadlineMet},
                        int{e.interrupted}}) {
      add(i);
    }
  }
  for (const double busy : exec.machineBusySeconds) add(busy);
  for (const double x : {exec.totalEnergy, exec.makespan, exec.totalAccuracy}) {
    add(x);
  }
  add(exec.deadlineMisses);
  add(exec.interruptions);
  return h;
}

// One row per (shape, context): totalEnergy, totalAccuracy, makespan, hash.
constexpr struct {
  double energy, accuracy, makespan;
  std::uint64_t hash;
} kPins[] = {
    {67.353911497119356, 4.0220769665096823, 0.875, 0xf53bbb39f624c249ULL},
    {40.409949535217194, 2.2214039636188203, 0.72814661968692818,
     0x5530123130727488ULL},
    {67.353911497119356, 3.3877782219118902, 0.875, 0x203ab1852226f037ULL},
    {48.228518251228465, 2.7839421433486149, 0.875, 0xc3fac741eb16f8e2ULL},
    {35.479374836726905, 2.4784835313927878, 0.875, 0xac9b49321108cbf2ULL},
    {602.89277409439364, 27.400478792412276, 4.4186299894739189,
     0x793a0a26df75945cULL},
    {371.37302597818871, 16.360045969738568, 3.2594198946439983,
     0xe4ed0927174b58f7ULL},
    {602.89277409439364, 26.406272783480837, 4.4186299894739189,
     0x6d1ac2c1035b8d16ULL},
    {275.43728512863197, 17.242773095222102, 3.2342898687050399,
     0xb3682070401296deULL},
    {450.94124598402664, 19.401671978375227, 3.2342898687050399,
     0xeb5171b90ff157f5ULL},
};

TEST(ExecutorGolden, FiveContextsPinnedBitForBit) {
  std::size_t row = 0;
  int misses = 0, ties = 0, slowed = 0, interruptions[5] = {};
  for (const auto& [n, m] : {std::pair{16, 3}, {80, 6}}) {
    Rng rng(deriveSeed(20261017u, static_cast<std::uint64_t>(n)));
    const Instance inst = goldenInstance(rng, n, m);
    const IntegralSchedule s = goldenSchedule(inst, rng);
    for (int kind = 0; kind < 5; ++kind) {
      sim::FaultTrace trace;
      sim::FaultContext ctx;
      makeContext(kind, s, m, rng, trace, ctx);
      const sim::ExecutionResult exec =
          kind == 0 ? sim::executeSchedule(inst, s)
                    : sim::executeSchedule(inst, s, ctx);
      const std::uint64_t hash = resultHash(exec);
      char got[128];
      std::snprintf(got, sizeof got, "got {%.17g, %.17g, %.17g, 0x%llxULL}",
                    exec.totalEnergy, exec.totalAccuracy, exec.makespan,
                    static_cast<unsigned long long>(hash));
      ASSERT_LT(row, std::size(kPins)) << got;
      EXPECT_EQ(exec.totalEnergy, kPins[row].energy) << got;
      EXPECT_EQ(exec.totalAccuracy, kPins[row].accuracy) << got;
      EXPECT_EQ(exec.makespan, kPins[row].makespan) << got;
      EXPECT_EQ(hash, kPins[row++].hash) << got;

      // Each context must do what it is there for, or the pins cover less
      // than they claim.
      interruptions[kind] += exec.interruptions;
      for (const sim::TaskExecution& a : exec.executions) {
        slowed += kind == 2 && a.executed && a.flops < s.flops(inst, a.task);
        misses += kind == 0 && !a.deadlineMet;
        for (const sim::TaskExecution& b : exec.executions) {
          ties += kind == 0 && a.executed && b.executed &&
                  a.machine < b.machine && a.finish == b.finish;
        }
      }
      if (kind == 4) {
        EXPECT_EQ(exec.machineBusySeconds[0], 0.0);
      }
    }
  }
  EXPECT_EQ(row, std::size(kPins));
  EXPECT_GT(misses, 0);
  EXPECT_GT(ties, 0);
  EXPECT_GT(slowed, 0);
  EXPECT_EQ(interruptions[0] + interruptions[2], 0);
  EXPECT_GT(interruptions[1], 0);
  EXPECT_GT(interruptions[3], 0);
  EXPECT_GT(interruptions[4], 0);
}

}  // namespace
}  // namespace dsct
