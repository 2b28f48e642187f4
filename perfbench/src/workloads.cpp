#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <thread>
#include <utility>

#include "core/solver_registry.h"
#include "sched/validator.h"
#include "sim/cluster.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using dsct::sim::ServingStats;

void expect(bool ok, const std::string& check, PassResult& pass) {
  if (!ok) pass.failures.push_back(check);
}

/// Solver pool of the serving loop: four workers, fewer on a smaller
/// machine.
std::size_t solverThreads() {
  return std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
}

std::vector<std::string> diffStats(const ServingStats& a,
                                   const ServingStats& b) {
  std::vector<std::string> out;
#define PERFBENCH_COMPARE(field) \
  if (!(a.field == b.field)) out.push_back(#field)
  PERFBENCH_COMPARE(requests);
  PERFBENCH_COMPARE(served);
  PERFBENCH_COMPARE(deadlineMisses);
  PERFBENCH_COMPARE(missPenalty);
  PERFBENCH_COMPARE(meanAccuracy);
  PERFBENCH_COMPARE(totalEnergy);
  PERFBENCH_COMPARE(meanLatency);
  PERFBENCH_COMPARE(epochs);
  PERFBENCH_COMPARE(interruptions);
  PERFBENCH_COMPARE(retries);
  PERFBENCH_COMPARE(abandoned);
  PERFBENCH_COMPARE(shed);
  PERFBENCH_COMPARE(fallbacks);
  PERFBENCH_COMPARE(policyFailures);
  PERFBENCH_COMPARE(policyTimeouts);
  PERFBENCH_COMPARE(asyncEpochs);
  PERFBENCH_COMPARE(validatorRejections);
  PERFBENCH_COMPARE(budgetShockEpochs);
  PERFBENCH_COMPARE(noMachineEpochs);
  PERFBENCH_COMPARE(machineDepartures);
  PERFBENCH_COMPARE(batteryExhaustions);
  PERFBENCH_COMPARE(batteryCappedEpochs);
  PERFBENCH_COMPARE(shardedEpochs);
  PERFBENCH_COMPARE(shardPriceIterations);
  PERFBENCH_COMPARE(shardTopUpCells);
  PERFBENCH_COMPARE(shardTopUpEnergy);
  PERFBENCH_COMPARE(shardPriceDivergences);
  PERFBENCH_COMPARE(incidents);
  PERFBENCH_COMPARE(profileCacheHits);
  PERFBENCH_COMPARE(profileCacheMisses);
  PERFBENCH_COMPARE(profileCacheInvalidations);
  PERFBENCH_COMPARE(profileCacheShards);
  PERFBENCH_COMPARE(lpPivots);
  PERFBENCH_COMPARE(lpRefactorizations);
  PERFBENCH_COMPARE(lpWarmStartsUsed);
  PERFBENCH_COMPARE(lpWarmStartsRepaired);
  PERFBENCH_COMPARE(lpWarmStartsRejected);
#undef PERFBENCH_COMPARE
  return out;
}

// ------------------------------------------------------------- serving --

/// Overrides applied to a parsed scenario before it is materialised.
using ScenarioAdjust = std::function<void(dsct::Scenario&)>;

/// A scenario file served end to end by one sim::runServing call per pass.
class ServingWorkload final : public Workload {
 public:
  /// `pinned`: serve the file's own request stream whatever the seed.
  ServingWorkload(std::string path, std::uint64_t defaultSeed, bool pinned,
                  ScenarioAdjust adjust, double horizonOverride)
      : path_(std::move(path)),
        defaultSeed_(defaultSeed),
        pinned_(pinned),
        adjust_(std::move(adjust)),
        horizonOverride_(horizonOverride) {}

  std::uint64_t defaultSeed() const override { return defaultSeed_; }

  long long requestsPerPass() const override {
    return static_cast<long long>(options_.requestTrace.size());
  }

  SetupTimes setup(std::uint64_t seed) override {
    SetupTimes times;
    times.parse.start = nowSeconds();
    dsct::Scenario scenario = dsct::loadScenarioFile(path_);
    times.parse.end = nowSeconds();
    times.materialize.start = times.parse.end;
    // The seed drives the request streams. The fleets and availability
    // traces of the benchmark's scenario files carry their own seeds.
    scenario.seed = pinned_ ? defaultSeed_ : seed;
    if (adjust_) adjust_(scenario);
    if (horizonOverride_ > 0.0) {
      scenario.serving.horizonSeconds = horizonOverride_;
    }
    machines_ = dsct::materializeMachines(scenario);
    options_ = dsct::makeServingOptions(scenario);
    times.materialize.end = nowSeconds();
    options_.solverThreads = solverThreads();
    policy_ = scenario.serving.policy;
    chain_ = options_.fallbackChain;
    return times;
  }

  PassResult run(bool traced) override {
    std::string policy = policy_;
    options_.fallbackChain = chain_;
    if (traced) {
      policy = proxyName(policy_);
      for (std::string& name : options_.fallbackChain) name = proxyName(name);
      SolveRecorder::instance().reset(
          dsct::SolverRegistry::instance().resolve(policy_).name(),
          options_.shards > 1);
    }
    PassResult pass;
    pass.run.start = nowSeconds();
    const ServingStats stats =
        dsct::sim::runServing(machines_, policy, options_);
    pass.run.end = nowSeconds();
    pass.spans.push_back(
        {"sim.runServing", "sim", pass.run, -1, -1, threadNumber()});
    if (traced) pass.solves = SolveRecorder::instance().records();

    pass.requests = stats.requests;
    pass.accuracySum = stats.meanAccuracy * stats.requests;
    pass.accuracyBound = options_.amax * stats.requests;
    pass.misses = stats.deadlineMisses;
    pass.epochs = stats.epochs;
    pass.served = stats.served;
    pass.shed = stats.shed;
    pass.fallbacks = stats.fallbacks;
    pass.priceIterations = stats.shardPriceIterations;
    pass.topUpCells = stats.shardTopUpCells;
    pass.sharded = options_.shards > 1;

    expect(stats.requests == requestsPerPass(),
           "every request of the trace is accounted for", pass);
    expect(stats.served <= stats.requests && stats.shed <= stats.requests &&
               stats.deadlineMisses <= stats.requests,
           "served, shed and missed requests are at most the requests", pass);
    const double granted = options_.energyBudgetPerEpoch * stats.epochs;
    expect(stats.totalEnergy <= granted * (1.0 + 1e-9) + 1e-6,
           "energy stays within the granted budget times the epochs", pass);
    expect(stats.meanAccuracy >= options_.amin - 1e-12 &&
               stats.meanAccuracy <= options_.amax + 1e-12,
           "mean accuracy lies in [a_min, a_max]", pass);
    if (traced) {
      long long epochsSeen = 0;
      for (const SolveRecord& solve : pass.solves) {
        epochsSeen = std::max(epochsSeen, solve.epoch + 1);
      }
      const long long solvedEpochs =
          pass.sharded ? stats.shardedEpochs
                       : stats.epochs - stats.noMachineEpochs;
      expect(epochsSeen == solvedEpochs,
             "the proxies saw every solved epoch", pass);
    }
    pass.stats = stats;
    return pass;
  }

 private:
  std::string path_;
  std::uint64_t defaultSeed_;
  bool pinned_;
  ScenarioAdjust adjust_;
  double horizonOverride_;
  std::vector<dsct::Machine> machines_;
  dsct::sim::ServingOptions options_;
  std::string policy_;
  std::vector<std::string> chain_;
};

// --------------------------------------------------------------- batch --

/// Per-instance batch outputs every pass must reproduce, in signature order.
constexpr const char* kSignatureFields[] = {
    "accuracy",        "energy",          "upper_bound",
    "guarantee",       "scheduled",       "dropped",
    "evaluations",     "cache_hits",      "schedule_solves",
    "direction_lp_solves", "outer_rounds", "pair_moves",
    "direction_steps", "slack_queries",   "slack_hits",
    "schedule_hash"};
constexpr std::size_t kSignatureWidth = std::size(kSignatureFields);

void appendSignature(const dsct::SolveOutcome& outcome,
                     std::vector<double>& out) {
  // FNV-1a over every task's machine and duration bits.
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  };
  const dsct::IntegralSchedule& schedule = *outcome.schedule;
  for (int j = 0; j < schedule.numTasks(); ++j) {
    mix(static_cast<std::uint64_t>(schedule.machineOf(j) + 1));
    const double duration = schedule.duration(j);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &duration, sizeof bits);
    mix(bits);
  }
  const dsct::FrOptCounters& c = outcome.counters;
  const double fields[] = {outcome.totalAccuracy,
                           outcome.energy,
                           outcome.upperBound,
                           outcome.guaranteeG,
                           static_cast<double>(outcome.scheduledTasks),
                           static_cast<double>(outcome.droppedTasks),
                           static_cast<double>(c.evaluations),
                           static_cast<double>(c.cacheHits),
                           static_cast<double>(c.scheduleSolves),
                           static_cast<double>(c.directionLpSolves),
                           static_cast<double>(c.outerRounds),
                           static_cast<double>(c.pairMoves),
                           static_cast<double>(c.directionSteps),
                           static_cast<double>(c.slackQueries),
                           static_cast<double>(c.slackHits),
                           static_cast<double>(hash >> 11)};
  static_assert(std::size(fields) == kSignatureWidth);
  out.insert(out.end(), std::begin(fields), std::end(fields));
}

/// One-shot APPROX solves of generated instances — the paper's own run-time
/// measurement — each followed by the validator and the executor.
class BatchWorkload final : public Workload {
 public:
  explicit BatchWorkload(int tasks) {
    spec_.numTasks = tasks;
    spec_.numMachines = 16;
    spec_.rho = 0.35;
    // The budget binds at this beta; from about 0.02 up it is slack and
    // refine has almost nothing to do.
    spec_.beta = 0.005;
  }

  std::uint64_t defaultSeed() const override { return kSeed; }

  long long requestsPerPass() const override {
    return static_cast<long long>(kInstances) * spec_.numTasks;
  }

  SetupTimes setup(std::uint64_t /*seed*/) override {
    SetupTimes times;
    times.parse.start = times.parse.end = nowSeconds();
    times.materialize.start = times.parse.end;
    // The instances are pinned: with four seed-drawn instances a pass took
    // 3.9 to 11.7 s over five seeds, so any change would drown in the
    // choice of seed.
    instances_.clear();
    for (int k = 0; k < kInstances; ++k) {
      instances_.push_back(dsct::makeScenario(
          spec_, kThetaMin, kThetaMax,
          dsct::deriveSeed(kSeed, static_cast<std::uint64_t>(k))));
    }
    times.materialize.end = nowSeconds();
    return times;
  }

  PassResult run(bool traced) override {
    const dsct::Solver& solver = dsct::SolverRegistry::instance().resolve(
        traced ? proxyName("approx") : "approx");
    if (traced) SolveRecorder::instance().reset("approx", false);
    // The default context: one thread and no cross-solve cache.
    const dsct::SolveContext context;
    struct Solved {
      dsct::SolveOutcome outcome;
      dsct::ValidationReport report;
      double executedEnergy = 0.0;
      int executedMisses = 0;
    };
    std::vector<Solved> solved(instances_.size());
    PassResult pass;
    const int thread = threadNumber();
    pass.run.start = nowSeconds();
    for (std::size_t k = 0; k < instances_.size(); ++k) {
      const dsct::Instance& inst = instances_[k];
      Solved& s = solved[k];
      s.outcome = solver.solve(inst, context);
      if (!s.outcome.schedule.has_value()) continue;
      const auto id = static_cast<long long>(k);
      Span validate{kValidateCall, "sched", {nowSeconds(), 0.0}, id, -1,
                    thread};
      s.report = dsct::validate(inst, *s.outcome.schedule);
      validate.time.end = nowSeconds();
      Span execute{kExecuteCall, "sim", {validate.time.end, 0.0}, id, -1,
                   thread};
      const dsct::sim::ExecutionResult exec =
          dsct::sim::executeSchedule(inst, *s.outcome.schedule);
      execute.time.end = nowSeconds();
      s.executedEnergy = exec.totalEnergy;
      s.executedMisses = exec.deadlineMisses;
      pass.spans.push_back(std::move(validate));
      pass.spans.push_back(std::move(execute));
    }
    pass.run.end = nowSeconds();
    pass.spans.push_back({"batch.pass", "bench", pass.run, -1, -1, thread});
    if (traced) pass.solves = SolveRecorder::instance().records();

    for (std::size_t k = 0; k < solved.size(); ++k) {
      const dsct::Instance& inst = instances_[k];
      const Solved& s = solved[k];
      const dsct::SolveOutcome& o = s.outcome;
      const std::string tag = "instance " + std::to_string(k) + ": ";
      if (!o.schedule.has_value()) {
        expect(false, tag + "approx returns a schedule", pass);
        continue;
      }
      expect(s.report.feasible,
             tag + "the validator finds the schedule feasible (" +
                 s.report.summary() + ")",
             pass);
      expect(std::fabs(s.executedEnergy - o.energy) <=
                 1e-9 * std::max(1.0, o.energy),
             tag + "the executed energy equals the schedule's energy", pass);
      expect(o.energy <= inst.energyBudget() * (1.0 + 1e-9) + 1e-6,
             tag + "the energy stays within the budget", pass);
      const double tol = 1e-9 * std::max(1.0, o.upperBound);
      expect(o.upperBound - o.guaranteeG - tol <= o.totalAccuracy &&
                 o.totalAccuracy <= o.upperBound + tol,
             tag + "UB - G <= SOL <= UB", pass);
      pass.requests += inst.numTasks();
      pass.accuracySum += o.totalAccuracy;
      pass.accuracyBound += o.upperBound;
      pass.misses += s.executedMisses;
      pass.served += o.scheduledTasks;
      appendSignature(o, pass.signature);
    }
    pass.epochs = static_cast<long long>(solved.size());
    return pass;
  }

 private:
  // One instance per pass keeps passes short, so a run measures several.
  static constexpr int kInstances = 1;
  static constexpr double kThetaMin = 0.1;
  static constexpr double kThetaMax = 4.9;
  static constexpr std::uint64_t kSeed = 2024;

  dsct::ScenarioSpec spec_;
  std::vector<dsct::Instance> instances_;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{
      "serve-sharded-approx", "batch-approx", "serve-edf3-firehose",
      "serve-volunteer-long"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const std::string& repoRoot,
                                       const WorkloadScale& scale) {
  const std::string scenarios = repoRoot + "/scenarios/";
  if (name == "serve-sharded-approx") {
    // ROADMAP's end-to-end target: the million-task stream under approx with
    // shedding off and 8 cells, clamped to two one-second epochs so a run
    // takes its median over several passes. The stream is pinned: whether
    // an epoch's cells get a top-up re-solve turns on small budget slack,
    // and five epochs took 6.6 s on a seed with 8 top-up solves against
    // 11.3 to 12.1 s on four seeds with 40.
    return std::make_unique<ServingWorkload>(
        scenarios + "million_tasks.dsct", 1000003, true,
        [](dsct::Scenario& s) {
          s.serving.policy = "approx";
          s.serving.admissionLoadFactor = 0.0;
          s.serving.shards = 8;
          s.serving.horizonSeconds = 2.0;
        },
        scale.horizonSeconds);
  }
  if (name == "batch-approx") {
    // n = 1000 keeps a solve under a second, so a 20 s run takes its fastest
    // pass from about 25 solves. At n = 2000 a run measured four or five
    // 2.3 to 3.9 s solves, and its fastest pass spread 16 to 26% over ten
    // seeds; at n = 1000 it spread 2 to 3% over five or six seeds while the
    // host was quiet.
    return std::make_unique<BatchWorkload>(
        scale.batchTasks > 0 ? scale.batchTasks : 1000);
  }
  if (name == "serve-edf3-firehose") {
    // The million-task stream as shipped: edf3 with admission shedding.
    return std::make_unique<ServingWorkload>(scenarios + "million_tasks.dsct",
                                             1000003, false, nullptr,
                                             scale.horizonSeconds);
  }
  if (name == "serve-volunteer-long") {
    return std::make_unique<ServingWorkload>(
        scenarios + "volunteer_fleet.dsct", 314, false,
        [](dsct::Scenario& s) { s.serving.horizonSeconds = 2400.0; },
        scale.horizonSeconds);
  }
  return nullptr;
}

std::vector<std::string> diffOutputs(const PassResult& a,
                                     const PassResult& b) {
  std::vector<std::string> out = diffStats(a.stats, b.stats);
  if (a.signature.size() != b.signature.size()) {
    out.push_back("number of batch outcomes");
    return out;
  }
  for (std::size_t i = 0; i < a.signature.size(); ++i) {
    if (a.signature[i] != b.signature[i]) {
      out.push_back("instance " + std::to_string(i / kSignatureWidth) + " " +
                    kSignatureFields[i % kSignatureWidth]);
    }
  }
  return out;
}

}  // namespace perfbench
