// Dedicated tests for RefineProfile (Algorithm 3) and solveForProfile (the
// generalised Algorithm 2 core), the differential that pins the live-donor
// walk to the linear-scan reference, and the pins on refine's pair plan.
#include "sched/refine_profile.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sched/fr_opt.h"
#include "sched/naive_solution.h"
#include "sched/profile_evaluator.h"
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

// --- Transfer-free calls settle the schedule --------------------------------
// FR-OPT skips a refine call while the schedule is still the one a
// transfer-free call returned (DESIGN.md §19). That is sound only if refine
// keeps no state across calls: a second call on that schedule must again
// move nothing, keep every bit and report the same stats.

TEST(RefineSettled, TransferFreeCallRepeatsExactly) {
  constexpr int kSeeds = 120;
  int settledCalls = 0;
  for (int c = 0; c < kSeeds; ++c) {
    const Instance inst =
        corpusInstance(deriveSeed(20261017u, static_cast<std::uint64_t>(c)),
                       c);
    const RefinePlan plan = buildRefinePlan(inst);
    Rng rng(deriveSeed(4242u, static_cast<std::uint64_t>(c)));
    for (int start = 0; start < 3; ++start) {
      const FractionalSchedule initial = refineStart(inst, start, rng);
      const std::vector<double> caps = capsAround(inst, initial, rng);
      for (const bool capped : {false, true}) {
        SCOPED_TRACE("case " + std::to_string(c) + " start " +
                     std::to_string(start) + (capped ? " capped" : ""));
        RefineOptions options;
        if (capped) options.machineEnergyCaps = &caps;
        FractionalSchedule once = initial;
        const RefineStats first = refineProfile(inst, plan, once, options);
        if (first.transfers != 0) continue;
        ++settledCalls;
        FractionalSchedule twice = once;
        const RefineStats second = refineProfile(inst, plan, twice, options);
        EXPECT_EQ(second.transfers, 0);
        EXPECT_EQ(second.rounds, first.rounds);
        EXPECT_EQ(bits(second.energyMoved), bits(first.energyMoved));
        EXPECT_EQ(second.slack.queries, first.slack.queries);
        EXPECT_EQ(second.slack.hits, first.slack.hits);
        EXPECT_EQ(second.slack.rebuilds, first.slack.rebuilds);
        EXPECT_EQ(second.slack.invalidations, first.slack.invalidations);
        int changed = 0;
        for (int j = 0; j < inst.numTasks(); ++j) {
          for (int r = 0; r < inst.numMachines(); ++r) {
            if (bits(once.at(j, r)) != bits(initial.at(j, r))) ++changed;
            if (bits(twice.at(j, r)) != bits(initial.at(j, r))) ++changed;
          }
        }
        EXPECT_EQ(changed, 0);
      }
    }
  }
  // The naive start rarely transfers, so most of its calls are checked.
  EXPECT_GE(settledCalls, 100);
}

// --- The pair plan ----------------------------------------------------------
// buildRefinePlan merges per-machine streams instead of sorting every pair
// (DESIGN.md §19). Its order must equal a full sort under the walk's
// comparator, field for field and bit for bit.

/// Every (segment, machine) pair in creation order, sorted by the walk's
/// comparator: the construction the plan replaced, kept as its oracle.
std::vector<RefinePair> sortedPairsReference(const Instance& inst) {
  std::vector<RefinePair> pairs;
  for (int j = 0; j < inst.numTasks(); ++j) {
    const PiecewiseLinearAccuracy& acc = inst.task(j).accuracy;
    for (int k = 0; k < acc.numSegments(); ++k) {
      const AccuracySegment seg = acc.segment(k);
      for (int r = 0; r < inst.numMachines(); ++r) {
        const double e = inst.machine(r).efficiency;
        pairs.push_back({j, k, r, seg.slope, seg.slope * e, seg.fLo, seg.fHi});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const RefinePair& a, const RefinePair& b) {
              if (a.psi != b.psi) return a.psi > b.psi;
              if (a.task != b.task) return a.task < b.task;
              if (a.segment != b.segment) return a.segment < b.segment;
              return a.machine < b.machine;
            });
  return pairs;
}

/// Expects `plan` to be the reference order with consistent firstSeg and
/// position. Returns the number of adjacent pairs with equal ψ.
int expectPlanMatchesSort(const Instance& inst, const RefinePlan& plan) {
  const std::vector<RefinePair> want = sortedPairsReference(inst);
  const auto m = static_cast<std::size_t>(inst.numMachines());
  EXPECT_EQ(plan.firstSeg.size(),
            static_cast<std::size_t>(inst.numTasks()) + 1);
  EXPECT_EQ(plan.firstSeg.front(), 0u);
  for (int j = 0; j < inst.numTasks(); ++j) {
    EXPECT_EQ(plan.firstSeg[static_cast<std::size_t>(j) + 1] -
                  plan.firstSeg[static_cast<std::size_t>(j)],
              static_cast<std::size_t>(inst.task(j).accuracy.numSegments()));
  }
  EXPECT_EQ(plan.pairs.size(), want.size());
  EXPECT_EQ(plan.position.size(), want.size());
  if (plan.pairs.size() != want.size() ||
      plan.position.size() != want.size()) {
    return 0;
  }
  int mismatches = 0;
  int ties = 0;
  for (std::size_t q = 0; q < want.size(); ++q) {
    const RefinePair& got = plan.pairs[q];
    const RefinePair& ref = want[q];
    const bool same = got.task == ref.task && got.segment == ref.segment &&
                      got.machine == ref.machine &&
                      bits(got.slope) == bits(ref.slope) &&
                      bits(got.psi) == bits(ref.psi) &&
                      bits(got.fLo) == bits(ref.fLo) &&
                      bits(got.fHi) == bits(ref.fHi);
    if (!same && mismatches++ == 0) {
      ADD_FAILURE() << "pair " << q << ": (" << got.task << ", "
                    << got.segment << ", " << got.machine << ") vs ("
                    << ref.task << ", " << ref.segment << ", " << ref.machine
                    << ")";
    }
    // position inverts the order: creation index → q.
    const std::size_t creation =
        (plan.firstSeg[static_cast<std::size_t>(ref.task)] +
         static_cast<std::size_t>(ref.segment)) *
            m +
        static_cast<std::size_t>(ref.machine);
    if (plan.position[creation] != q && mismatches++ == 0) {
      ADD_FAILURE() << "position[" << creation << "] = "
                    << plan.position[creation] << ", want " << q;
    }
    if (q > 0 && want[q - 1].psi == ref.psi) ++ties;
  }
  EXPECT_EQ(mismatches, 0);
  return ties;
}

/// Checks both entry points: the plan from the evaluator's segment list, as
/// FR-OPT builds it, and the one that sorts its own.
int expectPlansMatchSort(const Instance& inst) {
  const ProfileEvaluator evaluator(inst);
  const int ties = expectPlanMatchesSort(
      inst, buildRefinePlan(inst, evaluator.sortedSegments()));
  expectPlanMatchesSort(inst, buildRefinePlan(inst));
  return ties;
}

Task linearTask(double deadline, double slope) {
  return Task{deadline,
              PiecewiseLinearAccuracy::fromPoints({0.0, 1.0}, {0.0, slope}),
              "linear"};
}

TEST(RefinePlan, MatchesFullSortOverCorpus) {
  constexpr int kCases = 600;
  int ties = 0;
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    ties += expectPlansMatchSort(corpusInstance(
        deriveSeed(20261018u, static_cast<std::uint64_t>(c)), c));
  }
  // Wider fleets: more merge passes, and m not a power of two.
  for (const int m : {6, 7, 8, 16}) {
    SCOPED_TRACE("m = " + std::to_string(m));
    ties += expectPlansMatchSort(
        randomInstance(deriveSeed(5252u, static_cast<std::uint64_t>(m)), 60, m,
                       0.1, 0.3, 0.1, 4.9));
  }
  // Equal-ψ runs are where a merge could diverge from the sort.
  EXPECT_GE(ties, 1000);
}

TEST(RefinePlan, PsiCollisionOrdersByTask) {
  // Distinct slopes whose ψ round to one double: the slope order puts task 1
  // first, the walk's comparator task 0.
  const double lower = 0.45;
  const double higher = std::nextafter(0.45, 1.0);
  const double e = 0.035;
  ASSERT_NE(lower, higher);
  ASSERT_EQ(lower * e, higher * e);
  const Instance inst({linearTask(1.0, lower), linearTask(2.0, higher)},
                      {Machine{1.0, e, "a"}, Machine{2.0, e, "b"}}, 10.0);
  ASSERT_EQ(inst.task(0).accuracy.slope(0), lower);
  ASSERT_EQ(inst.task(1).accuracy.slope(0), higher);
  expectPlansMatchSort(inst);
  const RefinePlan plan = buildRefinePlan(inst);
  ASSERT_EQ(plan.pairs.size(), 4u);
  EXPECT_EQ(plan.pairs[0].task, 0);
  EXPECT_EQ(plan.pairs[0].machine, 0);
  EXPECT_EQ(plan.pairs[1].task, 0);
  EXPECT_EQ(plan.pairs[1].machine, 1);
  EXPECT_EQ(plan.pairs[2].task, 1);
  EXPECT_EQ(plan.pairs[3].task, 1);
}

TEST(RefinePlan, EqualSlopesAcrossTasks) {
  std::vector<Task> tasks;
  for (int j = 0; j < 5; ++j) {
    tasks.push_back(Task{1.0 + j, twoSegment(0.0, 0.8, 2.0), "same"});
  }
  const Instance inst(std::move(tasks),
                      {Machine{1.0, 0.05, "a"}, Machine{2.0, 0.08, "b"},
                       Machine{3.0, 0.05, "c"}},
                      10.0);
  EXPECT_GT(expectPlansMatchSort(inst), 0);
}

TEST(RefinePlan, AllFlatTasksKeepCreationOrder) {
  std::vector<Task> tasks;
  for (int j = 0; j < 4; ++j) {
    tasks.push_back(Task{1.0 + j,
                         PiecewiseLinearAccuracy::linear(0.2, 0.2, 1.0 + j),
                         "flat"});
  }
  const Instance inst(std::move(tasks),
                      {Machine{1.0, 0.05, "a"}, Machine{2.0, 0.08, "b"},
                       Machine{3.0, 0.02, "c"}},
                      10.0);
  expectPlansMatchSort(inst);
  const RefinePlan plan = buildRefinePlan(inst);
  for (std::size_t i = 0; i < plan.position.size(); ++i) {
    EXPECT_EQ(plan.position[i], i);  // every ψ is 0
  }
}

TEST(RefinePlan, SingleMachine) {
  for (int trial = 0; trial < 5; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    expectPlansMatchSort(randomInstance(
        deriveSeed(6161u, static_cast<std::uint64_t>(trial)), 20, 1));
  }
}

TEST(RefinePlan, NoTasks) {
  const Instance inst({}, {Machine{1.0, 0.05, "a"}, Machine{2.0, 0.08, "b"}},
                      10.0);
  const RefinePlan plan = buildRefinePlan(inst);
  EXPECT_TRUE(plan.pairs.empty());
  EXPECT_TRUE(plan.position.empty());
  ASSERT_EQ(plan.firstSeg.size(), 1u);
  EXPECT_EQ(plan.firstSeg[0], 0u);
  FractionalSchedule schedule(0, 2);
  const RefineStats stats = refineProfile(inst, plan, schedule);
  EXPECT_EQ(stats.rounds, 0);
  EXPECT_EQ(stats.transfers, 0);
}

}  // namespace
}  // namespace dsct
