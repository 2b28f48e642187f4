// Online MLaaS serving driver.
//
// Simulates an inference service: requests arrive from a supplied trace,
// explicit arrival times or a Poisson process, each with a task efficiency θ
// and a relative deadline; every `epoch` seconds the pending batch is
// scheduled by a registry solver under a per-epoch energy budget and
// executed on the simulated cluster. This is the "cloud inference service"
// substrate motivating the paper's problem.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/types.h"
#include "sim/availability.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "util/cancel.h"

namespace dsct::sim {

/// One externally supplied serving request: arrival time plus the
/// per-request attributes the driver would otherwise draw from its own RNG.
/// The scenario DSL (workload/scenario.h) materialises task classes into a
/// RequestSpec trace; hand-built traces work the same way. `missPenalty` is
/// the request's SLA weight, added to ServingStats::missPenalty every time
/// the request misses a deadline — executed past it, or (trace mode only)
/// expired inside the horizon without receiving any service.
struct RequestSpec {
  double arrival = 0.0;      ///< seconds from the run start, ascending
  double relDeadline = 1.0;  ///< relative deadline (s), > 0
  double theta = 1.0;        ///< task efficiency θ, > 0
  double missPenalty = 1.0;  ///< SLA miss-penalty weight, >= 0

  friend bool operator==(const RequestSpec&, const RequestSpec&) = default;
};

struct ServingOptions {
  double arrivalRatePerSecond = 20.0;
  /// Explicit arrival times (seconds, ascending); when non-empty they
  /// replace the internally generated Poisson stream — use with
  /// ArrivalProcess::diurnal for day/night load shapes.
  std::vector<double> arrivalTimes;
  /// Fully specified request trace (ascending arrivals). When non-empty it
  /// replaces BOTH the arrival stream and the per-request deadline/θ draws:
  /// no workload RNG is consumed for admitted requests, so a trace replays
  /// bit-identically regardless of `seed`. Mutually exclusive with
  /// `arrivalTimes`.
  std::vector<RequestSpec> requestTrace;
  double horizonSeconds = 10.0;
  double epochSeconds = 1.0;
  /// Relative deadline drawn uniformly from this range (seconds).
  double relDeadlineLo = 0.5;
  double relDeadlineHi = 2.0;
  /// Energy budget granted per scheduling epoch (J).
  double energyBudgetPerEpoch = 100.0;
  double thetaLo = 0.1;
  double thetaHi = 4.9;
  double amin = 1e-3;
  double amax = 0.82;
  int segments = 5;
  /// Carry partially processed requests into later epochs: a request whose
  /// deadline extends beyond the epoch re-enters the next batch with its
  /// *residual* accuracy function (PiecewiseLinearAccuracy::suffix), so the
  /// FLOPs invested earlier are not wasted. Off by default (the paper's
  /// one-shot batching).
  bool carryBacklog = false;
  std::uint64_t seed = 1;

  /// Fault injection (crashes, stragglers, budget shocks) and the retry
  /// budget for interrupted requests; off by default.
  FaultOptions faults;
  /// Availability layer (DESIGN.md §15): seeded departure/return windows
  /// exclude machines from whole epochs, and a per-machine battery drains
  /// with executed work and recharges at a fixed rate — capping the epoch
  /// budget at the fleet's stored energy and cutting machines that run dry
  /// (the residual spills through the faults retry/backlog path, bounded by
  /// faults.maxRetries). Off by default.
  AvailabilityOptions availability;
  /// Admission control: when > 0, at most ceil(admissionLoadFactor × alive
  /// machines) requests enter an epoch's batch; the excess requests with the
  /// least remaining accuracy headroom are shed (finalized at their current
  /// accuracy) instead of letting the solver starve the whole batch. 0 (the
  /// default) disables shedding.
  double admissionLoadFactor = 0.0;
  /// Per-epoch wall-clock budget for the whole scheduling attempt chain
  /// (s). Every attempt receives a CancelToken carrying the *remaining*
  /// budget, polled cooperatively inside the solvers, so a deadline-missing
  /// solve is stopped mid-solve instead of discarded post-hoc. Once the
  /// budget is blown, later fallback attempts run without a token — the chain
  /// must still serve the epoch, and the blowout is already on the incident
  /// log. <= 0 (default) disables the budget. Deterministic under an
  /// injected `clock`; with the default steady clock it is wall-clock based
  /// and therefore not replay-deterministic.
  double epochTimeLimitSeconds = 0.0;
  /// Clock used for the epoch solve budget (seconds, monotonic). Empty uses
  /// std::chrono::steady_clock. An injected clock must be callable from
  /// several threads at once (see ClockFn); tests inject a fake clock to
  /// make timeout behaviour deterministic.
  ClockFn clock{};
  /// Ordered fallback chain, as solver-registry names: when the primary
  /// policy fails (throw, injected failure, timeout, validator rejection) in
  /// a guarded run, each chain entry is attempted in order — skipping
  /// entries equal to the primary — and the first feasible schedule serves
  /// the epoch; if every entry fails the epoch serves an empty schedule.
  /// Every entry must name a registered solver with the `integral`
  /// capability.
  std::vector<std::string> fallbackChain{"edf3"};
  /// Run the feasibility validator on every epoch's schedule and fall back
  /// when it rejects. Implied by faults.enabled and epochTimeLimitSeconds.
  bool validateEpochs = false;
  /// Worker threads of the pool a sharded run (`shards` > 1) solves its
  /// cells on; 0 means hardware concurrency. Results do not depend on it
  /// (tests/serving_shard_test.cpp).
  std::size_t solverThreads = 0;
  /// Carry an LP warm-start slot (core/solver_api.h LpWarmStartSlot) across
  /// the run's epochs for solvers with the `usesLpWarmStart` capability
  /// ("fr-lp", "mip-warm"): the final basis of one epoch's optimal LP seeds
  /// the next epoch's solve when the instance's structural fingerprint
  /// matches (bound/RHS drift only). Results are bit-identical with this on
  /// or off (pinned by tests/solver_warm_start_test.cpp); only the pivot
  /// work differs — see ServingStats' lp* counters.
  bool lpWarmStarts = true;
  /// Shard the primary policy's epoch solves into K budget-partitioned
  /// cells coordinated by the Lagrangian energy-price loop (DESIGN.md §18,
  /// shard/coordinator.h): the epoch instance is split deterministically,
  /// the global budget is priced across the cells, the cells solve in
  /// parallel on the run's worker pool, and leftover energy tops up
  /// budget-bound cells. <= 1 (default) keeps the unsharded path
  /// bit-identically (tests/serving_shard_test.cpp pins this). Fallback
  /// attempts stay unsharded — a shard-layer problem must not take the
  /// safety net down with it.
  int shards = 0;
  /// Partitioner seed for the sharded path (see shard::PartitionOptions).
  std::uint64_t shardSeed = 0;
};

/// One line of the per-epoch incident log.
enum class IncidentKind {
  kPolicyFailure,     ///< a scheduling attempt threw (or failure was injected)
  kPolicyTimeout,     ///< primary policy exceeded epochTimeLimitSeconds
  kValidatorReject,   ///< a schedule failed the feasibility validator
  kFallbackEngaged,   ///< epoch served by a fallback-chain entry
  kEmptySchedule,     ///< the whole chain failed; epoch served nothing
  kNoAliveMachines,   ///< every machine was down at the epoch boundary
  kBudgetShock,       ///< epoch budget scaled by the shock factor
  kAdmissionShed,     ///< requests shed by admission control
  kMachineDeparted,   ///< machines out of the fleet this epoch (availability)
  kBatteryBudgetCapped,  ///< epoch budget capped at the fleet's stored energy
  kBatteryExhausted,  ///< machines whose battery ran dry mid-epoch
  kShardPriceDiverged,  ///< shard price loop hit its iteration cap without
                        ///< reaching the budget tolerance (payload: final λ)
};

const char* toString(IncidentKind kind);

/// 24 bytes: an int epoch (runServing rejects a horizon of more than
/// INT_MAX epochs) leaves no padding before `value`. A long serving run logs
/// an incident in almost every epoch: 4,270 over volunteer_fleet's 2,400 s.
struct EpochIncident {
  int epoch = 0;
  IncidentKind kind = IncidentKind::kPolicyFailure;
  /// Kind-specific payload:
  ///  - kPolicyFailure: attempt depth (0 = primary, k > 0 = k-th fallback);
  ///  - kPolicyTimeout: the attempt's elapsed solve seconds;
  ///  - kBudgetShock: the budget shock factor;
  ///  - kAdmissionShed: number of requests shed;
  ///  - kMachineDeparted: number of machines departed this epoch;
  ///  - kBatteryBudgetCapped: the capped budget (Σ present stored energy, J);
  ///  - kBatteryExhausted: number of machines cut dry this epoch;
  ///  - 0 for every other kind.
  double value = 0.0;
  /// Attempt depth for kPolicyTimeout (0 = primary policy, k > 0 = k-th
  /// fallback attempt); 0 for other kinds (kPolicyFailure keeps its depth
  /// in `value` for log-shape compatibility).
  int depth = 0;

  bool operator==(const EpochIncident&) const = default;
};

struct ServingStats {
  int requests = 0;
  int served = 0;            ///< requests that executed with > 0 FLOPs
  /// Tasks executed past their deadline; with a request trace, additionally
  /// requests whose deadline expired inside the horizon with zero service
  /// (dropped requests violated their SLA). The generator path keeps the
  /// executed-late-only semantics bit-identically.
  int deadlineMisses = 0;
  /// Σ RequestSpec::missPenalty over missed deadlines — the SLA-weighted
  /// companion of deadlineMisses (equal to it when every weight is 1, e.g.
  /// whenever no request trace is supplied).
  double missPenalty = 0.0;
  double meanAccuracy = 0.0; ///< over all requests (dropped count a_min)
  double totalEnergy = 0.0;  ///< J over the whole run
  double meanLatency = 0.0;  ///< completion − arrival, over served requests
  int epochs = 0;

  // Fault-tolerance counters (all zero on the fault-free path).
  int interruptions = 0;       ///< request slices cut by machine crashes
  int retries = 0;             ///< interrupted requests re-admitted later
  int abandoned = 0;           ///< interrupted requests out of retry budget
  int shed = 0;                ///< requests dropped by admission control
  int fallbacks = 0;           ///< epochs not served by the primary policy
  int policyFailures = 0;      ///< primary-policy throws/timeouts/injections
  int policyTimeouts = 0;      ///< attempts over the epoch solve budget
                               ///< (any depth; cancelled mid-solve or post hoc)
  /// Always 0; only perfbench reads it.
  int asyncEpochs = 0;
  int validatorRejections = 0; ///< schedules rejected by the validator gate
  int budgetShockEpochs = 0;
  int noMachineEpochs = 0;     ///< epochs with every machine crashed/departed

  // Availability counters (all zero when availability is off).
  int machineDepartures = 0;   ///< machine-epochs spent out of the fleet
  int batteryExhaustions = 0;  ///< machines cut mid-epoch by an empty store
  int batteryCappedEpochs = 0; ///< epochs whose budget the fleet's stored
                               ///< energy capped below the granted budget

  // Shard-coordinator counters (all zero when ServingOptions::shards <= 1).
  int shardedEpochs = 0;                ///< primary solves that ran sharded
  long long shardPriceIterations = 0;   ///< Σ outer price-loop iterations
  int shardTopUpCells = 0;              ///< Σ cells re-solved by top-up
  double shardTopUpEnergy = 0.0;        ///< Σ Joules granted by top-up
  int shardPriceDivergences = 0;        ///< solves whose price loop hit its
                                        ///< cap outside the budget tolerance
  std::vector<EpochIncident> incidents;

  /// Always 0; only perfbench reads it.
  long long profileCacheHits = 0;
  /// Always 0; only perfbench reads it.
  long long profileCacheMisses = 0;
  /// Always 0; only perfbench reads it.
  long long profileCacheInvalidations = 0;
  /// Always 0; only perfbench reads it.
  long long profileCacheShards = 0;

  // LP work over the whole run, summed from SolveOutcome::lpCounters (all
  // zero for policies without an LP). used/repaired count every warm basis
  // the engine accepted — the cross-epoch slot AND the MIP's intra-solve
  // node-basis inheritance, so they are nonzero for MIP policies even with
  // lpWarmStarts off. Rejections can only come from the cross-epoch slot
  // (stale fingerprint/shape), so lpWarmStartsRejected is zero whenever
  // lpWarmStarts is off.
  long long lpPivots = 0;
  long long lpRefactorizations = 0;
  long long lpWarmStartsUsed = 0;      ///< warm basis feasible: phase 1 skipped
  long long lpWarmStartsRepaired = 0;  ///< warm basis installed, phase 1 ran
  long long lpWarmStartsRejected = 0;  ///< stale fingerprint/shape: cold solve
};

class PowerTrace;

/// Serve `options`' request stream with `policy`, any solver registered in
/// core/solver_registry.h that has the `integral` capability ("approx",
/// "edf", "edf3", "levels-opt", "mip-warm", ... — see `dsct_cli solvers`).
///
/// Each epoch's energy budget is options.energyBudgetPerEpoch, or — with a
/// `supply` trace (renewable-powered serving, paper Section 7) — the energy
/// the trace supplies during that epoch. Unused supply is not stored: a
/// batteryless deployment.
ServingStats runServing(const std::vector<Machine>& machines,
                        const std::string& policy,
                        const ServingOptions& options,
                        const PowerTrace* supply = nullptr);

}  // namespace dsct::sim
