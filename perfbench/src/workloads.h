// The benchmark's four workloads. perfbench/README.md records why each one
// exists, which layers it loads and which it bypasses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "proxy_solver.h"
#include "sim/serving.h"
#include "spans.h"

namespace perfbench {

/// Names of the direct layer calls batch-approx times (PassResult::spans).
inline constexpr const char* kValidateCall = "sched.validate";
inline constexpr const char* kExecuteCall = "sim.executeSchedule";

/// The calls of one set-up round. batch-approx reads no file, so its parse
/// interval is empty.
struct SetupTimes {
  Interval parse;
  Interval materialize;
};

/// Everything one measured pass produced.
struct PassResult {
  Interval run;               ///< the measured phase
  long long requests = 0;     ///< requests (serving) or tasks (batch) handled
  double accuracySum = 0.0;   ///< Σ accuracy reached
  /// Σ bound on that accuracy: the fractional optimum UB of each instance
  /// (batch), or a_max per request (serving, where no solver bound exists).
  double accuracyBound = 0.0;
  long long misses = 0;       ///< deadline misses, shed and expired included
  long long epochs = 0;       ///< serving epochs, or batch instances
  long long served = 0;       ///< requests (tasks) that received work
  long long shed = 0;
  long long fallbacks = 0;
  long long priceIterations = 0;
  long long topUpCells = 0;
  bool sharded = false;       ///< the proxied solves are shard cell solves
  std::vector<Span> spans;    ///< the pass itself and its direct layer calls
  std::vector<SolveRecord> solves;    ///< proxied solves (traced passes)
  std::vector<std::string> failures;  ///< output checks that failed
  // Outputs every pass of a run must reproduce exactly.
  dsct::sim::ServingStats stats;  ///< serving workloads
  std::vector<double> signature;  ///< batch outcomes, per instance
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::uint64_t defaultSeed() const = 0;
  /// Build the inputs for `seed`, replacing the previous ones.
  virtual SetupTimes setup(std::uint64_t seed) = 0;
  /// Requests (batch: tasks) one pass handles, once set up.
  virtual long long requestsPerPass() const = 0;
  /// One measured pass, with its output checks. A traced pass routes every
  /// solve through the proxy solvers.
  virtual PassResult run(bool traced) = 0;
};

/// Shrinks a workload for the benchmark's tests; zero keeps its own size.
struct WorkloadScale {
  double horizonSeconds = 0.0;  ///< serving horizon (s)
  int batchTasks = 0;           ///< tasks per batch-approx instance
};

const std::vector<std::string>& workloadNames();

/// nullptr for an unknown name. `repoRoot` is where scenarios/ lives.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const std::string& repoRoot,
                                       const WorkloadScale& scale = {});

/// Names of the outputs in which two passes differ; empty when identical.
/// ServingStats::profileCacheContended is left out: it counts lock
/// contention, which depends on thread timing.
std::vector<std::string> diffOutputs(const PassResult& a,
                                     const PassResult& b);

}  // namespace perfbench
