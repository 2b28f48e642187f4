#include "sim/serving.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "accuracy/fit.h"
#include "core/solver_api.h"
#include "core/solver_registry.h"
#include "sched/validator.h"
#include "shard/coordinator.h"
#include "sim/renewable.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dsct::sim {

const char* toString(IncidentKind kind) {
  switch (kind) {
    case IncidentKind::kPolicyFailure: return "policy-failure";
    case IncidentKind::kPolicyTimeout: return "policy-timeout";
    case IncidentKind::kValidatorReject: return "validator-reject";
    case IncidentKind::kFallbackEngaged: return "fallback-engaged";
    case IncidentKind::kEmptySchedule: return "empty-schedule";
    case IncidentKind::kNoAliveMachines: return "no-alive-machines";
    case IncidentKind::kBudgetShock: return "budget-shock";
    case IncidentKind::kAdmissionShed: return "admission-shed";
    case IncidentKind::kMachineDeparted: return "machine-departed";
    case IncidentKind::kBatteryBudgetCapped: return "battery-budget-capped";
    case IncidentKind::kBatteryExhausted: return "battery-exhausted";
    case IncidentKind::kShardPriceDiverged: return "shard-price-diverged";
  }
  return "unknown";
}

namespace {

constexpr double kUnlimited = std::numeric_limits<double>::infinity();

/// Resolve a solver name for serving and enforce the integral capability —
/// the executor needs a task→machine assignment, not a fractional profile.
const Solver& resolveServingSolver(const std::string& name) {
  const Solver& solver = SolverRegistry::instance().resolve(name);
  DSCT_CHECK_MSG(solver.capabilities().integral,
                 "serving policy '" << name
                                    << "' does not produce integral schedules");
  return solver;
}

/// The generator path's request stream: the caller's arrival times or a
/// Poisson process, then each request's deadline and θ drawn in arrival
/// order. Admission consumes a prefix of the stream in order, so these are
/// exactly the draws a driver drawing at admission time would make.
std::vector<RequestSpec> generateRequests(const ServingOptions& options) {
  Rng rng(options.seed);
  std::vector<RequestSpec> stream;
  if (options.arrivalTimes.empty()) {
    const double rate = options.arrivalRatePerSecond;
    for (double t = rng.exponential(rate); t < options.horizonSeconds;
         t += rng.exponential(rate)) {
      stream.push_back(RequestSpec{.arrival = t});
    }
  } else {
    stream.reserve(options.arrivalTimes.size());
    for (std::size_t i = 0; i < options.arrivalTimes.size(); ++i) {
      DSCT_CHECK_MSG(
          i == 0 || options.arrivalTimes[i - 1] <= options.arrivalTimes[i],
          "arrivalTimes must be ascending");
      stream.push_back(RequestSpec{.arrival = options.arrivalTimes[i]});
    }
  }
  for (RequestSpec& spec : stream) {
    spec.relDeadline =
        rng.uniform(options.relDeadlineLo, options.relDeadlineHi);
    spec.theta = rng.uniform(options.thetaLo, options.thetaHi);
  }
  return stream;
}

/// A request in flight. Without backlog carry-over a request lives for one
/// epoch; with it, a request re-enters later batches with its residual
/// accuracy function until its deadline passes or it is fully processed.
/// Fault recovery reuses the same residual path: an interrupted request
/// re-enters with its partial FLOPs until its retry budget runs out.
struct Active {
  double arrival;
  double absoluteDeadline;
  PiecewiseLinearAccuracy accuracy;  ///< the request's full curve
  double flopsDone = 0.0;
  double lastFinish = 0.0;  ///< absolute completion time of the last slice
  int retryCount = 0;       ///< epochs in which this request was interrupted
  bool interrupted = false; ///< interrupted in the current epoch
  double missPenalty = 1.0; ///< SLA weight per missed deadline
};

/// One solved epoch, handed from the solve stage to execute(): the epoch
/// instance and its schedule, the batch it serves, the batch slot behind
/// each (deadline-sorted) instance task, and the fleet index behind each
/// instance machine (empty when the whole fleet serves every epoch).
struct EpochPlan {
  long long epoch;
  double epochStart;
  double epochEnd;
  Instance inst;
  IntegralSchedule sched;
  std::vector<Active> batch;
  std::vector<std::size_t> order;
  std::vector<int> fleet;
};

/// Admission keeps every candidate when no load-factor cap applies.
constexpr std::size_t kAdmitAll = std::numeric_limits<std::size_t>::max();

/// One serving run. Each epoch runs the stages in order on the calling
/// thread — read the epoch's arrivals, filter the fleet, admit (shedding
/// past the load-factor cap), build the instance, set the budget, solve
/// through the attempt chain, execute and retire — and each stage exists
/// once (DESIGN.md §21).
class ServingRun {
 public:
  ServingRun(const std::vector<Machine>& machines, const std::string& policy,
             const ServingOptions& options, const PowerTrace* supply);
  // The solve contexts point into the run's members.
  ServingRun(const ServingRun&) = delete;
  ServingRun& operator=(const ServingRun&) = delete;

  ServingStats run();

 private:
  std::span<const RequestSpec> arrivalsBefore(double epochEnd);
  bool filterFleet(long long epoch, double epochStart, std::vector<int>& fleet,
                   std::vector<Machine>& present);
  std::size_t admissionCap(std::size_t presentMachines) const;
  void admit(long long epoch, std::span<const RequestSpec> arrivals,
             std::size_t cap);
  Active activate(const RequestSpec& spec) const;
  double epochBudget(long long epoch, double epochStart, double epochEnd,
                     const std::vector<int>& fleet);
  IntegralSchedule schedule(const Instance& inst, long long epoch);
  void execute(EpochPlan& plan);
  std::vector<Active> retire(std::vector<Active> batch, double epochEnd);
  void finalize(const Active& req);
  void finalizeUnserved(double absoluteDeadline, double missPenalty);
  void noteShard(long long epoch);
  void incident(long long epoch, IncidentKind kind, double value = 0.0,
                int depth = 0) {
    stats_.incidents.push_back({static_cast<int>(epoch), kind, value, depth});
  }
  double now() const {
    return options_.clock ? options_.clock() : steadyNowSeconds();
  }

  const std::vector<Machine>& machines_;
  const ServingOptions& options_;
  const PowerTrace* supply_;
  /// The fallback chain (primary → validate → options.fallbackChain) and
  /// the validator run only when some guard is active.
  const bool guarded_;
  /// An epoch solve budget is set (implies guarded_).
  const bool limited_;

  std::vector<RequestSpec> generated_;  ///< generator path only
  std::span<const RequestSpec> requests_;
  std::size_t next_ = 0;  ///< first request not yet read

  FaultTrace faults_;
  AvailabilityTrace avail_;
  BatteryModel battery_;

  const Solver* basePrimary_ = nullptr;
  std::unique_ptr<shard::ShardedSolver> shardedPrimary_;
  const Solver* primary_ = nullptr;
  std::vector<const Solver*> chain_;

  std::unique_ptr<ThreadPool> solverPool_;
  std::optional<LpWarmStartSlot> lpWarmSlot_;
  SolveContext solveCtx_;
  /// Per-epoch availability hints, refilled by the budget stage and handed
  /// only to capability-gated solvers.
  AvailabilityHints epochHints_;

  std::vector<Active> active_;  ///< requests in flight
  ServingStats stats_;
  lp::LpCounters lpTotals_;
  double accuracySum_ = 0.0;
  double latencySum_ = 0.0;
};

ServingRun::ServingRun(const std::vector<Machine>& machines,
                       const std::string& policy,
                       const ServingOptions& options, const PowerTrace* supply)
    : machines_(machines),
      options_(options),
      supply_(supply),
      guarded_(options.faults.enabled || options.validateEpochs ||
               options.epochTimeLimitSeconds > 0.0),
      limited_(options.epochTimeLimitSeconds > 0.0) {
  DSCT_CHECK(!machines.empty());
  DSCT_CHECK(options.epochSeconds > 0.0);
  DSCT_CHECK_MSG(std::isfinite(options.horizonSeconds),
                 "horizonSeconds must be finite, got "
                     << options.horizonSeconds);
  if (!options.requestTrace.empty()) {
    DSCT_CHECK_MSG(options.arrivalTimes.empty(),
                   "requestTrace and arrivalTimes are mutually exclusive");
    for (std::size_t i = 0; i < options.requestTrace.size(); ++i) {
      const RequestSpec& spec = options.requestTrace[i];
      DSCT_CHECK_MSG(spec.relDeadline > 0.0 && spec.theta > 0.0 &&
                         spec.missPenalty >= 0.0,
                     "requestTrace[" << i << "] has relDeadline "
                                     << spec.relDeadline << ", theta "
                                     << spec.theta << ", missPenalty "
                                     << spec.missPenalty);
      DSCT_CHECK_MSG(i == 0 || options.requestTrace[i - 1].arrival <=
                                   spec.arrival,
                     "requestTrace arrivals must be ascending");
    }
    requests_ = options.requestTrace;
  } else {
    // The rate feeds the Poisson generator only; an explicit arrival trace
    // makes it irrelevant and must not be rejected.
    DSCT_CHECK_MSG(!options.arrivalTimes.empty() ||
                       options.arrivalRatePerSecond > 0.0,
                   "arrivalRatePerSecond must be positive when no explicit "
                   "arrivalTimes are supplied");
    generated_ = generateRequests(options);
    requests_ = generated_;
  }

  // Fault events and the availability layer (DESIGN.md §15) are generated
  // only when enabled, so the default path draws no extra random numbers
  // and stays bit-identical to the driver before either existed.
  // EpochIncident stores the epoch index as an int.
  const double epochsInHorizon =
      std::ceil(options.horizonSeconds / options.epochSeconds);
  DSCT_CHECK_MSG(epochsInHorizon <= std::numeric_limits<int>::max(),
                 "horizonSeconds / epochSeconds is " << epochsInHorizon
                                                     << " epochs; at most "
                                                     << "INT_MAX are served");
  const auto numEpochs = static_cast<long long>(epochsInHorizon);
  const auto numMachines = static_cast<int>(machines.size());
  if (options.faults.enabled) {
    faults_ = FaultTrace::generate(numMachines, options.horizonSeconds,
                                   numEpochs, options.faults);
  }
  if (options.availability.enabled) {
    avail_ = AvailabilityTrace::generate(numMachines, options.horizonSeconds,
                                         numEpochs, options.epochSeconds,
                                         options.availability);
    if (avail_.batteryActive()) {
      battery_ = BatteryModel(numMachines, options.availability);
    }
  }

  // Resolve the primary policy and the fallback chain up front, so a typo
  // fails the run at epoch 0 rather than at the first faulty epoch.
  basePrimary_ = &resolveServingSolver(policy);
  // Sharded serving wraps the primary in a run-local ShardedSolver, which
  // every attempt then treats as a normal Solver. The coordinator is
  // stateful (per-cell warm-start slots), which is safe because at most one
  // solve is in flight. Fallback attempts use registry solvers
  // directly, so the safety net never depends on the shard layer.
  if (options.shards > 1) {
    shard::ShardOptions shardOptions;
    shardOptions.cells = options.shards;
    shardOptions.seed = options.shardSeed;
    shardedPrimary_ =
        std::make_unique<shard::ShardedSolver>(*basePrimary_, shardOptions);
  }
  primary_ = shardedPrimary_ != nullptr ? shardedPrimary_.get() : basePrimary_;
  chain_.reserve(options.fallbackChain.size());
  for (const std::string& name : options.fallbackChain) {
    chain_.push_back(&resolveServingSolver(name));
  }

  // The LP warm-start slot is capability-driven; the chain contributes only
  // in guarded runs, the only runs that consult it. It is carried across the
  // run's epochs and changes only the work, never the results: one epoch's
  // optimal basis seeds the next epoch's LP when the instance structure
  // matches. Sharded runs get a worker pool, on which the coordinator fans
  // the cell solves out.
  bool wantsLpWarm = primary_->capabilities().usesLpWarmStart;
  if (guarded_) {
    for (const Solver* fb : chain_) {
      wantsLpWarm = wantsLpWarm || fb->capabilities().usesLpWarmStart;
    }
  }
  if (shardedPrimary_ != nullptr) {
    solverPool_ = std::make_unique<ThreadPool>(options.solverThreads);
  }
  if (options.lpWarmStarts && wantsLpWarm) lpWarmSlot_.emplace();
  solveCtx_.pool = solverPool_.get();
  solveCtx_.lpWarm = lpWarmSlot_ ? &*lpWarmSlot_ : nullptr;
}

ServingStats ServingRun::run() {
  // Iterate over the integer epoch index and derive both boundaries by
  // multiplication: accumulating `epochStart += epochSeconds` compounds one
  // rounding error per epoch, which can admit an arrival into the wrong
  // epoch or run one epoch too many/few over long horizons.
  for (long long epoch = 0;; ++epoch) {
    const double epochStart =
        static_cast<double>(epoch) * options_.epochSeconds;
    if (epochStart >= options_.horizonSeconds) break;
    const double epochEnd =
        static_cast<double>(epoch + 1) * options_.epochSeconds;
    // Battery recharge at every epoch boundary — idle and departed epochs
    // included — so a drained volunteer device recovers while it sits out.
    if (battery_.active() && epoch > 0) {
      battery_.recharge(options_.epochSeconds);
    }
    const std::span<const RequestSpec> arrivals = arrivalsBefore(epochEnd);
    if (active_.empty() && arrivals.empty()) continue;
    ++stats_.epochs;

    std::vector<int> fleet;
    std::vector<Machine> present;
    if (!filterFleet(epoch, epochStart, fleet, present)) {
      admit(epoch, arrivals, kAdmitAll);
      active_ = retire(std::move(active_), epochEnd);
      continue;
    }
    admit(epoch, arrivals, admissionCap(present.size()));

    // Build a DSCT-EA instance with residual curves and deadlines relative
    // to the epoch end. The instance sorts its tasks by deadline; `order`
    // remembers the batch slot behind each sorted task.
    std::vector<Task> tasks;
    tasks.reserve(active_.size());
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const Active& req = active_[i];
      const double rel = std::max(1e-3, req.absoluteDeadline - epochEnd);
      PiecewiseLinearAccuracy curve = req.flopsDone > 0.0
                                          ? req.accuracy.suffix(req.flopsDone)
                                          : req.accuracy;
      tasks.push_back(Task{rel, std::move(curve), "req-" + std::to_string(i)});
    }
    std::vector<std::size_t> order(active_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return tasks[a].deadline < tasks[b].deadline;
                     });
    const double budget = epochBudget(epoch, epochStart, epochEnd, fleet);
    Instance inst(std::move(tasks), std::move(present), budget);

    IntegralSchedule sched = schedule(inst, epoch);
    EpochPlan plan{epoch,           epochStart,         epochEnd,
                   std::move(inst), std::move(sched),   std::move(active_),
                   std::move(order), std::move(fleet)};
    active_.clear();
    execute(plan);
  }
  // Horizon over: finalize whatever is still in flight. Arrivals past the
  // last epoch (possible with caller-provided times) are outside the
  // simulation and not counted.
  for (const Active& req : active_) finalize(req);

  if (stats_.requests > 0) {
    stats_.meanAccuracy = accuracySum_ / static_cast<double>(stats_.requests);
  }
  if (stats_.served > 0) {
    stats_.meanLatency = latencySum_ / static_cast<double>(stats_.served);
  }
  stats_.lpPivots = lpTotals_.pivots;
  stats_.lpRefactorizations = lpTotals_.refactorizations;
  stats_.lpWarmStartsUsed = lpTotals_.warmStartsUsed;
  stats_.lpWarmStartsRepaired = lpTotals_.warmStartsRepaired;
  stats_.lpWarmStartsRejected = lpTotals_.warmStartsRejected;
  return stats_;
}

/// The requests of the stream that arrive before `epochEnd` and have not
/// been read yet: the stream is ascending, so an epoch's arrivals are the
/// next contiguous run of it.
std::span<const RequestSpec> ServingRun::arrivalsBefore(double epochEnd) {
  const std::size_t first = next_;
  while (next_ < requests_.size() && requests_[next_].arrival < epochEnd) {
    ++next_;
  }
  return requests_.subspan(first, next_ - first);
}

/// Replan against the machines that are in the fleet and alive at the
/// epoch boundary: departed machines (availability trace) are excluded for
/// the whole epoch, crashed machines until they recover; a machine that
/// recovers or returns mid-epoch rejoins next epoch. Without faults or
/// availability the whole fleet serves and `fleet` stays empty. Returns
/// false when no machine is present.
bool ServingRun::filterFleet(long long epoch, double epochStart,
                             std::vector<int>& fleet,
                             std::vector<Machine>& present) {
  if (!faults_.enabled() && !avail_.enabled()) {
    present = machines_;
    return true;
  }
  int departedHere = 0;
  for (int r = 0; r < static_cast<int>(machines_.size()); ++r) {
    if (!avail_.presentInEpoch(r, epoch)) {
      ++departedHere;
      continue;
    }
    if (faults_.enabled() && !faults_.aliveAt(r, epochStart)) continue;
    fleet.push_back(r);
    present.push_back(machines_[static_cast<std::size_t>(r)]);
  }
  if (departedHere > 0) {
    stats_.machineDepartures += departedHere;
    incident(epoch, IncidentKind::kMachineDeparted, departedHere);
  }
  if (fleet.empty()) {
    ++stats_.noMachineEpochs;
    incident(epoch, IncidentKind::kNoAliveMachines);
    return false;
  }
  return true;
}

/// Admission control: at most ceil(load factor × present machines)
/// requests enter an epoch's batch; without a load factor, all of them. The
/// cap is compared in double first: converting a double at or past 2^64 to
/// size_t is undefined, and such a cap admits everyone anyway.
std::size_t ServingRun::admissionCap(std::size_t presentMachines) const {
  if (options_.admissionLoadFactor <= 0.0) return kAdmitAll;
  const double cap = std::ceil(options_.admissionLoadFactor *
                               static_cast<double>(presentMachines));
  if (cap >= static_cast<double>(kAdmitAll)) return kAdmitAll;
  return std::max<std::size_t>(1, static_cast<std::size_t>(cap));
}

/// Admit the epoch's arrivals behind the carried requests in `active_`,
/// keeping at most `cap` of them. Past the cap, the candidates with the
/// least remaining accuracy headroom are shed: the `cap` largest by
/// (headroom desc, batch index asc) stay in batch-index order, and the rest
/// are finalized in that order. Only a kept arrival gets its curve built; a
/// fresh request's headroom is its curve's amax − a_min, computed without
/// the curve (DESIGN.md §21).
void ServingRun::admit(long long epoch, std::span<const RequestSpec> arrivals,
                       std::size_t cap) {
  const std::size_t carried = active_.size();
  const std::size_t candidates = carried + arrivals.size();
  if (candidates <= cap) {
    active_.reserve(candidates);
    for (const RequestSpec& spec : arrivals) active_.push_back(activate(spec));
    return;
  }
  // (−headroom, batch index) ascending is (headroom desc, index asc).
  std::vector<std::pair<double, std::size_t>> byHeadroom;
  byHeadroom.reserve(candidates);
  for (std::size_t i = 0; i < carried; ++i) {
    const Active& req = active_[i];
    byHeadroom.emplace_back(
        req.accuracy.value(req.flopsDone) - req.accuracy.amax(), i);
  }
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    byHeadroom.emplace_back(
        options_.amin - paperAccuracyAmax(options_.amin, options_.amax,
                                          arrivals[k].theta,
                                          options_.segments),
        carried + k);
  }
  std::nth_element(byHeadroom.begin(),
                   byHeadroom.begin() + static_cast<std::ptrdiff_t>(cap),
                   byHeadroom.end());
  std::vector<bool> keep(candidates, false);
  for (std::size_t k = 0; k < cap; ++k) keep[byHeadroom[k].second] = true;
  std::vector<Active> kept;
  kept.reserve(cap);
  for (std::size_t i = 0; i < carried; ++i) {
    if (keep[i]) {
      kept.push_back(std::move(active_[i]));
    } else {
      finalize(active_[i]);
    }
  }
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const RequestSpec& spec = arrivals[k];
    if (keep[carried + k]) {
      kept.push_back(activate(spec));
    } else {
      finalizeUnserved(spec.arrival + spec.relDeadline, spec.missPenalty);
    }
  }
  active_ = std::move(kept);
  const auto shedHere = static_cast<int>(candidates - cap);
  stats_.shed += shedHere;
  incident(epoch, IncidentKind::kAdmissionShed, shedHere);
}

/// A request entering a batch for the first time, with its full curve.
Active ServingRun::activate(const RequestSpec& spec) const {
  return Active{spec.arrival, spec.arrival + spec.relDeadline,
                makePaperAccuracy(options_.amin, options_.amax, spec.theta,
                                  options_.segments),
                0.0, 0.0, 0, false, spec.missPenalty};
}

/// The epoch's energy budget: the granted (or supplied) energy, scaled by a
/// budget shock and capped at the fleet's stored energy. Also refills the
/// per-machine caps handed to availability-aware solvers, so they can avoid
/// over-assigning a nearly-empty machine in the first place.
double ServingRun::epochBudget(long long epoch, double epochStart,
                               double epochEnd, const std::vector<int>& fleet) {
  double budget = std::max(0.0, supply_ != nullptr
                                    ? supply_->energyBetween(epochStart,
                                                             epochEnd)
                                    : options_.energyBudgetPerEpoch);
  const double shock = faults_.budgetFactor(epoch);
  if (shock != 1.0) {
    budget *= shock;
    ++stats_.budgetShockEpochs;
    incident(epoch, IncidentKind::kBudgetShock, shock);
  }
  epochHints_.machineEnergyCaps.clear();
  if (battery_.active()) {
    double stored = 0.0;
    epochHints_.machineEnergyCaps.reserve(fleet.size());
    for (int r : fleet) {
      const double charge = battery_.charge(r);
      stored += charge;
      epochHints_.machineEnergyCaps.push_back(charge);
    }
    if (options_.availability.capGlobalBudget && stored < budget) {
      budget = stored;
      ++stats_.batteryCappedEpochs;
      incident(epoch, IncidentKind::kBatteryBudgetCapped, stored);
    }
  }
  return budget;
}

/// Solve the epoch through the attempt chain: the primary, then — if it
/// fails in a guarded run — each fallback-chain entry in order. A throw, an
/// injected failure, a solve-budget timeout or a validator rejection fails
/// an attempt; if every attempt fails, the epoch serves an empty schedule
/// rather than an infeasible one. An unguarded run is the primary attempt
/// alone: its exceptions propagate and its schedule is not validated.
IntegralSchedule ServingRun::schedule(const Instance& inst, long long epoch) {
  // The solve budget is shared by the whole chain and anchored at the
  // moment the primary starts. Each attempt's token carries the *remaining*
  // budget; once it is blown, later attempts run without a token (the chain
  // must still serve the epoch, and the blowout is already on the incident
  // log).
  const double chainDeadline =
      limited_ ? now() + options_.epochTimeLimitSeconds : 0.0;
  // depth 0 = the primary, depth k = the k-th fallback attempt. Injected
  // failures fail every attempt below the trace's injectFailureDepth; real
  // exceptions are logged for the primary only.
  const auto attempt = [&](const Solver& solver,
                           int depth) -> std::optional<IntegralSchedule> {
    if (faults_.policyFailureInjected(epoch) &&
        depth < faults_.injectFailureDepth()) {
      ++stats_.policyFailures;
      incident(epoch, IncidentKind::kPolicyFailure, depth);
      return std::nullopt;
    }
    // The attempt's context: the run's resources, the epoch's availability
    // hints for solvers that read them, and under a solve budget a token
    // carrying what is left of it.
    SolveContext ctx = solveCtx_;
    if (!epochHints_.machineEnergyCaps.empty() &&
        solver.capabilities().availabilityAware) {
      ctx.availability = &epochHints_;
    }
    const double start = limited_ ? now() : 0.0;
    const double granted = chainDeadline - start;
    std::optional<CancelToken> token;
    if (limited_ && granted > 0.0) {
      token.emplace(granted, options_.clock);
      ctx.cancel = &*token;
    }
    std::optional<IntegralSchedule> s;
    bool cancelled = false;
    try {
      SolveOutcome outcome = solver.solve(inst, ctx);
      lpTotals_.add(outcome.lpCounters);
      if (depth == 0) noteShard(epoch);
      cancelled = outcome.cancelled();
      if (!cancelled) {
        DSCT_CHECK_MSG(outcome.schedule.has_value(),
                       "solver '" << solver.name()
                                  << "' returned no integral schedule");
        s = std::move(*outcome.schedule);
      }
    } catch (const std::exception&) {
      if (!guarded_) throw;
      if (depth == 0) {
        ++stats_.policyFailures;
        incident(epoch, IncidentKind::kPolicyFailure);
      }
      return std::nullopt;
    }
    // A timeout: the solver observed its token and stopped early, or — for
    // slow non-cooperative spans — ran past its granted budget post hoc.
    // Attempts without a token are never flagged.
    const double elapsed = limited_ ? now() - start : 0.0;
    if (cancelled || (token.has_value() && elapsed > granted)) {
      if (depth == 0) ++stats_.policyFailures;
      ++stats_.policyTimeouts;
      incident(epoch, IncidentKind::kPolicyTimeout, elapsed, depth);
      return std::nullopt;
    }
    if (guarded_ && !validate(inst, *s).feasible) {
      ++stats_.validatorRejections;
      incident(epoch, IncidentKind::kValidatorReject);
      return std::nullopt;
    }
    return s;
  };

  std::optional<IntegralSchedule> s = attempt(*primary_, 0);
  if (!s.has_value()) {
    int depth = 1;
    for (const Solver* fb : chain_) {
      // A chain entry equal to the primary would just repeat the failed
      // attempt (under the default chain: edf3 does not fall back to
      // itself). Sharded runs compare against the inner solver — an
      // unsharded retry of the same algorithm is the same failed attempt.
      if (fb == basePrimary_) continue;
      s = attempt(*fb, depth++);
      if (s.has_value()) {
        ++stats_.fallbacks;
        incident(epoch, IncidentKind::kFallbackEngaged);
        break;
      }
    }
  }
  if (!s.has_value()) {
    ++stats_.fallbacks;
    incident(epoch, IncidentKind::kEmptySchedule);
    const auto n = static_cast<std::size_t>(inst.numTasks());
    s = IntegralSchedule::build(inst, std::vector<int>(n, -1),
                                std::vector<double>(n, 0.0));
  }
  return *std::move(s);
}

/// Run a plan on the simulated cluster under the epoch's faults and battery
/// cuts, credit the executed FLOPs to its batch, drain the batteries and
/// retire the batch; the requests it carries go to the front of the
/// in-flight set.
void ServingRun::execute(EpochPlan& plan) {
  const std::vector<Machine>& present = plan.inst.machines();
  FaultContext ctx;
  if (faults_.enabled()) {
    ctx.trace = &faults_;
    ctx.timeOffset = plan.epochStart;
    ctx.machineMap = plan.fleet;
  }
  // Battery discounting: a machine whose store cannot cover the energy of
  // its assigned timeline is cut at the instant the store runs dry — the
  // same semantics as a crash, so the residual spills through the retry
  // path. Machines within their charge keep the exact unfaulted execution
  // (empty cut vector, +inf cuts elsewhere).
  if (battery_.active()) {
    std::vector<double> cuts(present.size(), kUnlimited);
    int exhaustedHere = 0;
    for (std::size_t i = 0; i < present.size(); ++i) {
      const double power = present[i].power();
      double assignedSeconds = 0.0;
      for (const ScheduledTask& e :
           plan.sched.timeline(static_cast<int>(i))) {
        assignedSeconds += e.duration;
      }
      const double charge = battery_.charge(plan.fleet[i]);
      if (assignedSeconds * power > charge + 1e-9) {
        cuts[i] = power > 0.0 ? charge / power : kUnlimited;
        ++exhaustedHere;
      }
    }
    if (exhaustedHere > 0) {
      ctx.energyCutSeconds = std::move(cuts);
      stats_.batteryExhaustions += exhaustedHere;
      incident(plan.epoch, IncidentKind::kBatteryExhausted, exhaustedHere);
    }
  }
  const ExecutionResult exec = executeSchedule(plan.inst, plan.sched, ctx);
  if (battery_.active()) {
    // Drain by the energy actually consumed (busy seconds × power), which a
    // cut bounds at the machine's stored charge up to rounding.
    for (std::size_t i = 0; i < present.size(); ++i) {
      battery_.drain(plan.fleet[i],
                     exec.machineBusySeconds[i] * present[i].power());
    }
  }

  stats_.totalEnergy += exec.totalEnergy;
  for (int j = 0; j < plan.inst.numTasks(); ++j) {
    const TaskExecution& te = exec.executions[static_cast<std::size_t>(j)];
    Active& req = plan.batch[plan.order[static_cast<std::size_t>(j)]];
    if (te.executed && te.flops > 0.0) {
      req.flopsDone += te.flops;
      req.lastFinish = plan.epochEnd + te.finish;
    }
    if (te.interrupted) {
      req.interrupted = true;
      ++req.retryCount;
      ++stats_.interruptions;
    }
    if (!te.deadlineMet) {
      ++stats_.deadlineMisses;
      stats_.missPenalty += req.missPenalty;
    }
  }
  std::vector<Active> carried = retire(std::move(plan.batch), plan.epochEnd);
  active_.insert(active_.begin(), std::make_move_iterator(carried.begin()),
                 std::make_move_iterator(carried.end()));
}

/// Finalize a batch's requests, except those that carry into the next
/// epoch: with carry-over, requests that still have usable time next epoch
/// and accuracy headroom; interrupted requests additionally re-enter until
/// their retry budget is exhausted. Returns the carried requests.
std::vector<Active> ServingRun::retire(std::vector<Active> batch,
                                       double epochEnd) {
  const bool nextEpochRuns =
      epochEnd + options_.epochSeconds < options_.horizonSeconds;
  // Battery exhaustion spills through the same retry path as crashes (the
  // executor flags cut tasks `interrupted` either way); both share
  // options.faults.maxRetries.
  const bool retryPathActive = faults_.enabled() || battery_.active();
  std::vector<Active> carried;
  for (Active& req : batch) {
    const bool complete = req.flopsDone >= req.accuracy.fmax() - 1e-9;
    const bool hasTimeNextEpoch =
        req.absoluteDeadline > epochEnd + options_.epochSeconds;
    const bool carryNormal = options_.carryBacklog && !complete &&
                             hasTimeNextEpoch && nextEpochRuns;
    const bool carryRetry = retryPathActive && req.interrupted && !complete &&
                            hasTimeNextEpoch && nextEpochRuns &&
                            req.retryCount <= options_.faults.maxRetries;
    if (carryNormal || carryRetry) {
      if (req.interrupted) {
        ++stats_.retries;
        req.interrupted = false;
      }
      carried.push_back(std::move(req));
    } else {
      if (req.interrupted && !complete && hasTimeNextEpoch &&
          nextEpochRuns && req.retryCount > options_.faults.maxRetries) {
        ++stats_.abandoned;
      }
      finalize(req);
    }
  }
  return carried;
}

void ServingRun::finalize(const Active& req) {
  if (req.flopsDone <= 0.0) {
    finalizeUnserved(req.absoluteDeadline, req.missPenalty);
    return;
  }
  ++stats_.requests;
  ++stats_.served;
  accuracySum_ += req.accuracy.value(req.flopsDone);
  latencySum_ += req.lastFinish - req.arrival;
}

/// A request that received no FLOPs — shed on arrival, or never served —
/// leaves at a_min: its curve's value at 0, which fitInterpolate sets to
/// exactly options.amin (amin + (lo − lo)·scale).
void ServingRun::finalizeUnserved(double absoluteDeadline,
                                  double missPenalty) {
  ++stats_.requests;
  accuracySum_ += options_.amin;
  if (!options_.requestTrace.empty() &&
      absoluteDeadline <= options_.horizonSeconds) {
    // SLA accounting for supplied traces: a request whose deadline expired
    // inside the horizon without receiving any service missed its SLA. The
    // generator path keeps its executed-late-only semantics.
    ++stats_.deadlineMisses;
    stats_.missPenalty += missPenalty;
  }
}

/// Fold the coordinator's stats of a sharded primary solve into the run
/// totals; a price loop that hit its cap outside the budget tolerance is
/// logged with the accepted λ.
void ServingRun::noteShard(long long epoch) {
  if (shardedPrimary_ == nullptr) return;
  const shard::ShardStats& ss = shardedPrimary_->lastStats();
  ++stats_.shardedEpochs;
  stats_.shardPriceIterations += ss.priceIterations;
  stats_.shardTopUpCells += ss.topUpCells;
  stats_.shardTopUpEnergy += ss.topUpEnergy;
  if (!ss.converged) {
    ++stats_.shardPriceDivergences;
    incident(epoch, IncidentKind::kShardPriceDiverged, ss.finalPrice);
  }
}

}  // namespace

ServingStats runServing(const std::vector<Machine>& machines,
                        const std::string& policy,
                        const ServingOptions& options,
                        const PowerTrace* supply) {
  return ServingRun(machines, policy, options, supply).run();
}

}  // namespace dsct::sim
