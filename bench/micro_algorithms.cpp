// Microbenchmarks (google-benchmark) for the core algorithmic kernels:
// Algorithm 1, one profile evaluation, ComputeNaiveSolution, RefineProfile's
// plan build and walk, full FR-OPT, APPROX rounding, and the simplex on the
// fractional LP.
#include <benchmark/benchmark.h>

#include "mipmodel/dsct_lp.h"
#include "sched/approx.h"
#include "sched/energy_profile.h"
#include "sched/fr_opt.h"
#include "sched/naive_solution.h"
#include "sched/profile_evaluator.h"
#include "sched/refine_profile.h"
#include "sched/single_machine.h"
#include "solver/simplex.h"
#include "workload/generator.h"

namespace dsct {
namespace {

Instance makeBenchInstance(int n, int m) {
  ScenarioSpec spec;
  spec.numTasks = n;
  spec.numMachines = m;
  spec.rho = 0.35;
  spec.beta = 0.5;
  return makeScenario(spec, 0.1, 1.0, 42);
}

void BM_SingleMachine(benchmark::State& state) {
  const Instance inst = makeBenchInstance(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduleSingleMachine(inst.tasks(), inst.machine(0).speed));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SingleMachine)->Range(16, 1024)->Complexity();

// One ProfileEvaluator::evaluateWithCut (temporary deadlines, Algorithm 1,
// Σ a_j and the supergradient) at the naive profile: one cut of FR-OPT's
// profile search. At β = 0.005 the budget binds, so Algorithm 1
// saturates the machine and stops early; BM_SingleMachine is deadline-bound
// and never does. The counters give the segment count and how many of them
// one evaluation scans.
void BM_ProfileEvaluate(benchmark::State& state) {
  ScenarioSpec spec;
  spec.numTasks = static_cast<int>(state.range(0));
  spec.numMachines = static_cast<int>(state.range(1));
  spec.rho = 0.35;
  spec.beta = 0.005;
  const Instance inst = makeScenario(spec, 0.1, 4.9, 42);
  const EnergyProfile profile = naiveProfile(inst);
  const ProfileEvaluator evaluator(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluateWithCut(profile));
  }
  std::vector<SegmentJob> segments = makeSegmentJobs(inst.tasks());
  sortSegmentJobs(segments);
  std::size_t scanned = 0;
  scheduleSingleMachineSorted(temporaryDeadlines(inst, profile), 1.0,
                              segments, &scanned);
  state.counters["segments"] = static_cast<double>(segments.size());
  state.counters["scanned"] = static_cast<double>(scanned);
}
BENCHMARK(BM_ProfileEvaluate)->Args({1000, 16})->Args({5000, 32});

void BM_NaiveSolution(benchmark::State& state) {
  const Instance inst = makeBenchInstance(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(computeNaiveSolution(inst));
  }
}
BENCHMARK(BM_NaiveSolution)->Range(16, 512);

// Exports the solve's work counters (per solve, not per iteration) so the
// report shows how many fused evaluations (cuts), master-LP solves and
// schedule materialisations one FR-OPT run costs at each size.
void reportFrOptCounters(benchmark::State& state, const FrOptCounters& c) {
  state.counters["evals"] = static_cast<double>(c.evaluations);
  state.counters["master_lps"] = static_cast<double>(c.masterLpSolves);
  state.counters["sched_solves"] = static_cast<double>(c.scheduleSolves);
}

void BM_FrOpt(benchmark::State& state) {
  const Instance inst = makeBenchInstance(static_cast<int>(state.range(0)), 5);
  FrOptCounters counters;
  for (auto _ : state) {
    FrOptResult res = solveFrOpt(inst);
    counters = res.counters;
    benchmark::DoNotOptimize(res);
  }
  reportFrOptCounters(state, counters);
}
BENCHMARK(BM_FrOpt)->Range(16, 256);

void BM_Approx(benchmark::State& state) {
  const Instance inst = makeBenchInstance(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solveApprox(inst));
  }
}
BENCHMARK(BM_Approx)->Range(16, 256);

// Refine's cost in two parts: building the ψ-ordered pair plan, once per
// FR-OPT solve, from the evaluator's sorted segment list; and one walk of a
// prebuilt plan, once per refine call. Args are (tasks, machines).
void BM_RefinePlan(benchmark::State& state) {
  const Instance inst = makeBenchInstance(static_cast<int>(state.range(0)),
                                          static_cast<int>(state.range(1)));
  const ProfileEvaluator evaluator(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        buildRefinePlan(inst, evaluator.sortedSegments()));
  }
}
BENCHMARK(BM_RefinePlan)->Args({16, 5})->Args({256, 5})->Args({1000, 16});

void BM_RefineProfileOnly(benchmark::State& state) {
  const Instance inst = makeBenchInstance(static_cast<int>(state.range(0)),
                                          static_cast<int>(state.range(1)));
  const NaiveSolution naive = computeNaiveSolution(inst);
  const RefinePlan plan = buildRefinePlan(inst);
  for (auto _ : state) {
    state.PauseTiming();
    FractionalSchedule schedule = naive.schedule;  // fresh copy
    state.ResumeTiming();
    RefineStats stats = refineProfile(inst, plan, schedule);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_RefineProfileOnly)
    ->Args({16, 5})
    ->Args({256, 5})
    ->Args({1000, 16});

void BM_FractionalLpSimplex(benchmark::State& state) {
  const Instance inst = makeBenchInstance(static_cast<int>(state.range(0)), 5);
  const DsctLp lpModel = buildFractionalLp(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solveLp(lpModel.model));
  }
}
BENCHMARK(BM_FractionalLpSimplex)->Range(8, 64);

}  // namespace
}  // namespace dsct

BENCHMARK_MAIN();
