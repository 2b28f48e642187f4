// Algorithm 1 of the paper: exact fractional scheduling on one machine with
// piecewise-linear accuracy functions.
//
// Greedy water-filling over accuracy segments in non-increasing slope order:
// each segment receives as much processing time as the prefix deadline
// constraints of the task and all later tasks allow. A lazy segment tree
// over the suffix slacks d_i − prefix_i makes each grant O(log n), so the
// whole pass is O(S log n) for S segments. The pass ends as soon as the last
// task's slack is exhausted: every later segment could only be granted zero
// (DESIGN.md §20), and on budget-bound profiles that is often most of them.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sched/types.h"

namespace dsct {

/// One linear segment of a task's accuracy function, as consumed by the
/// single-machine scheduler (the paper's `listSegments` entries).
struct SegmentJob {
  int task = 0;       ///< owning task index
  int position = 0;   ///< segment index within the task's accuracy function
  double slope = 0.0; ///< accuracy per TFLOP
  double flops = 0.0; ///< TFLOP needed to fully process the segment
};

/// Flatten the accuracy functions of `tasks` into segment jobs.
std::vector<SegmentJob> makeSegmentJobs(std::span<const Task> tasks);

/// Sort segment jobs into Algorithm 1's processing order: non-increasing
/// slope, ties broken by (task, position) for determinism.
void sortSegmentJobs(std::vector<SegmentJob>& segments);

/// Algorithm 1. `deadlines` must be non-decreasing; returns per-task
/// processing times t_j (seconds) on a machine of the given speed (TFLOPS),
/// maximising total accuracy under prefix deadline constraints
/// Σ_{i<=j} t_i <= d_j.
std::vector<double> scheduleSingleMachine(std::span<const double> deadlines,
                                          double speed,
                                          std::vector<SegmentJob> segments);

/// Core of Algorithm 1 for callers that keep a pre-sorted segment list
/// (see sortSegmentJobs); skips validation and the per-call sort, so
/// repeated profile evaluations pay only the water-filling pass. The pass
/// stops early once the machine is saturated; `scanned`, when given,
/// receives how many segments it examined.
std::vector<double> scheduleSingleMachineSorted(
    std::span<const double> deadlines, double speed,
    std::span<const SegmentJob> sortedSegments,
    std::size_t* scanned = nullptr);

/// Convenience overload operating directly on an instance's tasks
/// (single machine, ignoring energy).
std::vector<double> scheduleSingleMachine(std::span<const Task> tasks,
                                          double speed);

}  // namespace dsct
