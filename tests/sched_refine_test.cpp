// Dedicated tests for RefineProfile (Algorithm 3) and solveForProfile (the
// generalised Algorithm 2 core), plus the differential that pins the
// live-donor walk to the linear-scan reference.
#include "sched/refine_profile.h"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sched/fr_opt.h"
#include "sched/naive_solution.h"
#include "sched/validator.h"
#include "tests/refine_linear_scan_reference.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace dsct {
namespace {

using testing::corpusInstance;
using testing::randomInstance;
using testing::twoSegment;

TEST(SolveForProfile, RespectsProfileCaps) {
  Rng rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    const Instance inst = randomInstance(deriveSeed(71, trial), 10, 3,
                                         rng.uniform(0.05, 0.8), 0.9);
    EnergyProfile profile;
    for (int r = 0; r < inst.numMachines(); ++r) {
      profile.push_back(rng.uniform(0.0, inst.maxDeadline()));
    }
    const FractionalSchedule s = solveForProfile(inst, profile);
    for (int r = 0; r < inst.numMachines(); ++r) {
      EXPECT_LE(s.machineLoad(r), profile[static_cast<std::size_t>(r)] + 1e-9)
          << "machine " << r << " trial " << trial;
    }
    // Deadlines always hold regardless of the profile.
    for (int r = 0; r < inst.numMachines(); ++r) {
      double prefix = 0.0;
      for (int j = 0; j < inst.numTasks(); ++j) {
        prefix += s.at(j, r);
        EXPECT_LE(prefix, inst.task(j).deadline + 1e-9);
      }
    }
  }
}

TEST(SolveForProfile, MonotoneInProfile) {
  // Growing any machine's cap can only improve total accuracy.
  Rng rng(78);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst =
        randomInstance(deriveSeed(72, trial), 8, 2, 0.1, 0.9);
    EnergyProfile small;
    for (int r = 0; r < inst.numMachines(); ++r) {
      small.push_back(rng.uniform(0.0, 0.5 * inst.maxDeadline()));
    }
    EnergyProfile large = small;
    const int grow = rng.uniformInt(0, inst.numMachines() - 1);
    large[static_cast<std::size_t>(grow)] = inst.maxDeadline();
    EXPECT_GE(solveForProfile(inst, large).totalAccuracy(inst),
              solveForProfile(inst, small).totalAccuracy(inst) - 1e-9)
        << "trial " << trial;
  }
}

TEST(SolveForProfile, ZeroProfileGivesFloor) {
  const Instance inst = randomInstance(3, 6, 3);
  const EnergyProfile zeros(static_cast<std::size_t>(inst.numMachines()), 0.0);
  const FractionalSchedule s = solveForProfile(inst, zeros);
  EXPECT_NEAR(s.totalAccuracy(inst), inst.totalAmin(), 1e-12);
}

TEST(SolveForProfile, FullProfileMatchesDeadlineOnlyOptimum) {
  // Profile == horizon on every machine removes the energy constraint.
  const Instance inst = randomInstance(4, 8, 3, 0.2, 1.0);
  const EnergyProfile full(static_cast<std::size_t>(inst.numMachines()),
                           inst.maxDeadline());
  const double capAcc = solveForProfile(inst, full).totalAccuracy(inst);
  // Compare with FR-OPT on a copy with unlimited budget.
  Instance unconstrained(inst.tasks(), inst.machines(), 1e15);
  const double freeAcc = solveFrOpt(unconstrained).totalAccuracy;
  EXPECT_NEAR(capAcc, freeAcc, 1e-6);
}

TEST(RefineProfile, EnergyConservedExactly) {
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = randomInstance(deriveSeed(73, trial), 12, 3,
                                         0.05, 0.4, 0.1, 4.9);
    NaiveSolution naive = computeNaiveSolution(inst);
    const double before = naive.schedule.energy(inst);
    refineProfile(inst, naive.schedule);
    const double after = naive.schedule.energy(inst);
    // Transfers conserve energy to numerical precision.
    EXPECT_NEAR(after, before, 1e-6 * std::max(1.0, before))
        << "trial " << trial;
  }
}

TEST(RefineProfile, NoTransfersWhenAlreadyOptimal) {
  // A generous instance where the naive solution is already optimal: every
  // task fully processed.
  std::vector<Task> tasks{Task{10.0, twoSegment(0.0, 0.8, 1.0), "t"}};
  std::vector<Machine> machines{Machine{1.0, 1.0, "m"}};
  Instance inst(std::move(tasks), std::move(machines), 1e9);
  NaiveSolution naive = computeNaiveSolution(inst);
  const RefineStats stats = refineProfile(inst, naive.schedule);
  EXPECT_EQ(stats.transfers, 0);
}

TEST(RefineProfile, MovesWorkTowardEfficientMachine) {
  // Two machines, same speed, very different efficiency; single task with
  // slack. Start from a hand-built schedule on the inefficient machine;
  // refinement must shift it to the efficient one (ψ ordering).
  std::vector<Task> tasks{Task{2.0, twoSegment(0.0, 0.8, 4.0), "t"}};
  std::vector<Machine> machines{
      Machine{1.0, 0.10, "efficient"},
      Machine{1.0, 0.01, "wasteful"},
  };
  Instance inst(std::move(tasks), std::move(machines), 30.0);
  FractionalSchedule s(1, 2);
  s.set(0, 1, 0.3);  // 0.3 s on the wasteful machine: 30 J, budget exhausted
  const double before = s.totalAccuracy(inst);
  refineProfile(inst, s);
  EXPECT_GT(s.totalAccuracy(inst), before);
  EXPECT_GT(s.at(0, 0), 0.0);  // moved to the efficient machine
  EXPECT_LT(s.energy(inst), 30.0 + 1e-9);
}

TEST(RefineProfile, RoundsBounded) {
  const Instance inst = randomInstance(99, 20, 4, 0.02, 0.3, 0.1, 4.9);
  NaiveSolution naive = computeNaiveSolution(inst);
  RefineOptions options;
  options.maxRounds = 3;
  const RefineStats stats = refineProfile(inst, naive.schedule, options);
  EXPECT_LE(stats.rounds, 3);
}

// --- Live donors vs the linear scan ----------------------------------------
// refineProfile walks only the pairs that can donate (DESIGN.md §19); the
// reference walks every lower-ψ pair. Both must take the same transfers in
// the same order, so every t_jr and every RefineStats field agrees bit for
// bit. The naive start alone transfers rarely on the corpus, so two
// randomised starts supply the transfer volume.

/// Start 0: the naive solution. Start 1: the naive solution with every t_jr
/// scaled by U(0, 1), which frees energy and leaves partly used segments on
/// every machine. Start 2: solveForProfile at a random profile.
FractionalSchedule refineStart(const Instance& inst, int start, Rng& rng) {
  if (start == 2) {
    EnergyProfile profile;
    for (int r = 0; r < inst.numMachines(); ++r) {
      profile.push_back(rng.uniform(0.0, inst.maxDeadline()));
    }
    return solveForProfile(inst, profile);
  }
  FractionalSchedule schedule = computeNaiveSolution(inst).schedule;
  if (start == 1) {
    for (int j = 0; j < inst.numTasks(); ++j) {
      for (int r = 0; r < inst.numMachines(); ++r) {
        schedule.set(j, r, schedule.at(j, r) * rng.uniform(0.0, 1.0));
      }
    }
  }
  return schedule;
}

/// Per-machine caps around the start's energy draw: some machines sit at or
/// above their cap (growth there is blocked), others have headroom.
std::vector<double> capsAround(const Instance& inst,
                               const FractionalSchedule& schedule, Rng& rng) {
  std::vector<double> caps;
  for (int r = 0; r < inst.numMachines(); ++r) {
    const double draw = schedule.machineLoad(r) * inst.machine(r).power();
    caps.push_back(rng.uniform(0.8, 1.3) * draw +
                   rng.uniform(0.0, 0.1) * inst.energyBudget() /
                       inst.numMachines());
  }
  return caps;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Refines `initial` with the live-donor walk and with the linear scan on
/// both slack sources, with and without `caps`, and expects identical
/// results. Returns the transfers of the scans on the slack engine.
long long expectMatchesLinearScan(const Instance& inst,
                                  const FractionalSchedule& initial,
                                  const std::vector<double>& caps) {
  long long transfers = 0;
  for (const bool capped : {false, true}) {
    RefineOptions options;
    if (capped) options.machineEnergyCaps = &caps;
    FractionalSchedule live = initial;
    const RefineStats got = refineProfile(inst, live, options);
    for (const bool scratch : {false, true}) {
      SCOPED_TRACE(std::string(capped ? "capped" : "uncapped") +
                   (scratch ? ", scratch slacks" : ", slack engine"));
      FractionalSchedule oracle = initial;
      const RefineStats want =
          scratch ? testing::refineProfileLinearScan<testing::ScratchSlackScan>(
                        inst, oracle, options)
                  : testing::refineProfileLinearScan(inst, oracle, options);

      EXPECT_EQ(got.rounds, want.rounds);
      EXPECT_EQ(got.transfers, want.transfers);
      EXPECT_EQ(bits(got.energyMoved), bits(want.energyMoved));
      EXPECT_EQ(got.slack.queries, want.slack.queries);
      if (!scratch) {  // the scratch scan memoises nothing
        EXPECT_EQ(got.slack.hits, want.slack.hits);
        EXPECT_EQ(got.slack.rebuilds, want.slack.rebuilds);
        EXPECT_EQ(got.slack.invalidations, want.slack.invalidations);
      }
      int mismatches = 0;
      for (int j = 0; j < inst.numTasks(); ++j) {
        for (int r = 0; r < inst.numMachines(); ++r) {
          if (bits(live.at(j, r)) != bits(oracle.at(j, r)) &&
              mismatches++ == 0) {
            ADD_FAILURE() << "t[" << j << "," << r << "]: " << live.at(j, r)
                          << " vs " << oracle.at(j, r);
          }
        }
      }
      EXPECT_EQ(mismatches, 0);
      if (!scratch) transfers += want.transfers;
    }
  }
  return transfers;
}

TEST(RefineLiveDonors, BitIdenticalToLinearScanOverCorpus) {
  constexpr int kSeeds = 120;
  long long transfers = 0;
  for (int c = 0; c < kSeeds; ++c) {
    const Instance inst =
        corpusInstance(deriveSeed(20261017u, static_cast<std::uint64_t>(c)),
                       c);
    Rng rng(deriveSeed(4242u, static_cast<std::uint64_t>(c)));
    for (int start = 0; start < 3; ++start) {
      SCOPED_TRACE("case " + std::to_string(c) + " start " +
                   std::to_string(start));
      const FractionalSchedule initial = refineStart(inst, start, rng);
      const std::vector<double> caps = capsAround(inst, initial, rng);
      transfers += expectMatchesLinearScan(inst, initial, caps);
    }
  }
  // A corpus on which refine idles would make the differential vacuous.
  EXPECT_GE(transfers, 1000);
}

TEST(RefineLiveDonors, BitIdenticalWithAThreeLevelLiveSet) {
  // The corpus stays under 64² pairs, where the live set has two bitset
  // levels; these instances need a third.
  long long transfers = 0;
  for (int trial = 0; trial < 2; ++trial) {
    const Instance inst = randomInstance(
        deriveSeed(5150u, static_cast<std::uint64_t>(trial)), 120, 8, 0.1,
        0.3, 0.1, 4.9);
    int pairs = 0;
    for (int j = 0; j < inst.numTasks(); ++j) {
      pairs += inst.task(j).accuracy.numSegments() * inst.numMachines();
    }
    ASSERT_GE(pairs, 64 * 64);
    Rng rng(deriveSeed(5151u, static_cast<std::uint64_t>(trial)));
    for (int start = 0; start < 3; ++start) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " start " +
                   std::to_string(start));
      const FractionalSchedule initial = refineStart(inst, start, rng);
      const std::vector<double> caps = capsAround(inst, initial, rng);
      transfers += expectMatchesLinearScan(inst, initial, caps);
    }
  }
  EXPECT_GT(transfers, 0);
}

}  // namespace
}  // namespace dsct
