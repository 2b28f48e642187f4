#include "sched/single_machine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/suffix_slack_tree.h"
#include "util/check.h"

namespace dsct {

std::vector<SegmentJob> makeSegmentJobs(std::span<const Task> tasks) {
  std::vector<SegmentJob> segments;
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    const PiecewiseLinearAccuracy& acc = tasks[j].accuracy;
    for (int k = 0; k < acc.numSegments(); ++k) {
      const AccuracySegment seg = acc.segment(k);
      segments.push_back(
          {static_cast<int>(j), k, seg.slope, seg.flops()});
    }
  }
  return segments;
}

void sortSegmentJobs(std::vector<SegmentJob>& segments) {
  // Non-increasing slope; ties broken by (task, position) for determinism.
  // Within a task, concavity already orders segments by position.
  std::sort(segments.begin(), segments.end(),
            [](const SegmentJob& a, const SegmentJob& b) {
              if (a.slope != b.slope) return a.slope > b.slope;
              if (a.task != b.task) return a.task < b.task;
              return a.position < b.position;
            });
}

std::vector<double> scheduleSingleMachineSorted(
    std::span<const double> deadlines, double speed,
    std::span<const SegmentJob> sortedSegments, std::size_t* scanned) {
  const std::size_t n = deadlines.size();
  std::vector<double> t(n, 0.0);
  if (scanned != nullptr) *scanned = 0;
  if (n == 0) return t;

  // slack_i = d_i − prefix_i; a segment of task j may grow t_j by
  // min_{i >= j} slack_i (lines 6-7 of Algorithm 1, extended to include j
  // itself), after which every slack at or after j shrinks by the grant.
  SuffixSlackTree slack(deadlines);

  std::size_t k = 0;
  while (k < sortedSegments.size()) {
    const SegmentJob& seg = sortedSegments[k++];
    // Zero-slope segments add no accuracy; granting them slack only inflates
    // energy and (for flattened comm-starved tasks) invents phantom work.
    // They sort last, so skipping them cannot change any other allocation.
    if (seg.slope <= 0.0) continue;
    const std::size_t j = static_cast<std::size_t>(seg.task);
    const double room = slack.suffixMin(j);
    const double contribution =
        std::max(0.0, std::min(seg.flops / speed, room));
    if (contribution <= 0.0) continue;
    t[j] += contribution;
    slack.suffixAdd(j, -contribution);
    // Saturation exit. Every suffix minimum includes the last task's slack,
    // and rounding is monotone, so once that slack is <= 0 every later query
    // returns <= 0 and every later segment would be granted nothing. A grant
    // smaller than its room leaves slack behind, so only slack-limited grants
    // pay for the check; a missed exit would cost time, never a result.
    if (contribution == room && slack.suffixMin(n - 1) <= 0.0) break;
  }
  if (scanned != nullptr) *scanned = k;
  return t;
}

std::vector<double> scheduleSingleMachine(std::span<const double> deadlines,
                                          double speed,
                                          std::vector<SegmentJob> segments) {
  DSCT_CHECK_MSG(speed > 0.0, "machine speed must be positive");
  const int n = static_cast<int>(deadlines.size());
  for (int j = 0; j + 1 < n; ++j) {
    DSCT_CHECK_MSG(deadlines[static_cast<std::size_t>(j)] <=
                       deadlines[static_cast<std::size_t>(j + 1)] + 1e-12,
                   "deadlines must be non-decreasing");
  }
  for (const SegmentJob& seg : segments) {
    DSCT_CHECK_MSG(seg.task >= 0 && seg.task < n,
                   "segment references unknown task " << seg.task);
    DSCT_CHECK(seg.flops >= 0.0);
    DSCT_CHECK(seg.slope >= 0.0);
  }

  sortSegmentJobs(segments);
  return scheduleSingleMachineSorted(deadlines, speed, segments);
}

std::vector<double> scheduleSingleMachine(std::span<const Task> tasks,
                                          double speed) {
  std::vector<double> deadlines;
  deadlines.reserve(tasks.size());
  for (const Task& task : tasks) deadlines.push_back(task.deadline);
  return scheduleSingleMachine(deadlines, speed, makeSegmentJobs(tasks));
}

}  // namespace dsct
