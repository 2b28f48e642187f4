// Span recording for the benchmark's traced passes, and the order statistics
// the per-layer metrics are computed from.
//
// Spans are kept in memory while a run lasts and written out once at its end
// as a Chrome `trace_event` file (open it in Perfetto or chrome://tracing).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the benchmark's monotonic clock (std::chrono::steady_clock,
/// counted from the first call in the process).
double nowSeconds();

/// Small dense number of the calling thread, in order of first call; the
/// trace's `tid`.
int threadNumber();

struct Interval {
  double start = 0.0;
  double end = 0.0;

  double seconds() const { return end - start; }
};

/// One timed call at a layer boundary.
struct Span {
  std::string name;       ///< the call, e.g. "approx" or "sim.runServing"
  std::string layer;      ///< module the call enters: workload, sim, core, ...
  Interval time;          ///< nowSeconds() at entry and at exit
  long long id = -1;      ///< shared by the spans of one epoch or solve
  long long parent = -1;  ///< for a shard cell solve, the id of its epoch
  int thread = 0;         ///< threadNumber() of the caller
};

/// Write `spans` as a Chrome trace_event JSON file; false on I/O error.
bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans);

/// Length of the union of `intervals`: the time covered by at least one of
/// them, overlaps counted once.
double unionSeconds(std::vector<Interval> intervals);

/// The highest of the percentiles 50, 90, 95, 99, 99.9 and 99.99 that leaves
/// at least ten of `n` samples above it; 50 when even the median does not.
double tailPercentile(std::size_t n);

/// Percentile p ∈ [0, 100] of `xs` by linear interpolation (util/stats.h);
/// 0 for an empty sample.
double percentileOr0(const std::vector<double>& xs, double p);

}  // namespace perfbench
