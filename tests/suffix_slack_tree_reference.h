// Test-only reference for Algorithm 1's slack tree: the original recursive
// lazy segment tree, kept verbatim as the oracle for the iterative tree in
// src/sched/suffix_slack_tree.h, plus the original Algorithm 1 segment loop
// that scans every segment (no saturation exit).
//
// The production tree walks the same canonical nodes bottom-up and the
// production loop stops once the last task's slack is exhausted; the
// SuffixSlackTreeExact and Alg1SaturationExit suites in
// tests/sched_single_machine_test.cpp require both to return the same
// doubles bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "sched/single_machine.h"

namespace dsct::testing {

class RecursiveSuffixSlackTree {
 public:
  RecursiveSuffixSlackTree() = default;
  explicit RecursiveSuffixSlackTree(std::span<const double> initial) {
    assign(initial);
  }

  /// (Re)build from leaf values, reusing storage when the size is unchanged.
  /// All pending adds are cleared: queries afterwards return exact minima
  /// over the given leaves.
  void assign(std::span<const double> initial) {
    n_ = initial.size();
    std::size_t size = 1;
    while (size < std::max<std::size_t>(1, n_)) size <<= 1;
    if (size != size_ || min_.empty()) {
      size_ = size;
      min_.assign(2 * size_, std::numeric_limits<double>::infinity());
      add_.assign(2 * size_, 0.0);
    } else {
      std::fill(min_.begin(), min_.end(),
                std::numeric_limits<double>::infinity());
      std::fill(add_.begin(), add_.end(), 0.0);
    }
    for (std::size_t i = 0; i < n_; ++i) min_[size_ + i] = initial[i];
    for (std::size_t i = size_ - 1; i >= 1; --i) {
      min_[i] = std::min(min_[2 * i], min_[2 * i + 1]);
    }
  }

  /// min_{i >= j} v_i (infinity for j >= n).
  double suffixMin(std::size_t j) const {
    if (j >= n_) return std::numeric_limits<double>::infinity();
    return rangeMin(1, 0, size_, j, n_);
  }

  /// v_i += delta for all i >= j.
  void suffixAdd(std::size_t j, double delta) {
    if (j >= n_) return;
    rangeAdd(1, 0, size_, j, n_, delta);
  }

 private:
  double rangeMin(std::size_t node, std::size_t lo, std::size_t hi,
                  std::size_t ql, std::size_t qr) const {
    if (qr <= lo || hi <= ql) {
      return std::numeric_limits<double>::infinity();
    }
    if (ql <= lo && hi <= qr) return min_[node] + add_[node];
    const std::size_t mid = (lo + hi) / 2;
    return add_[node] + std::min(rangeMin(2 * node, lo, mid, ql, qr),
                                 rangeMin(2 * node + 1, mid, hi, ql, qr));
  }

  void rangeAdd(std::size_t node, std::size_t lo, std::size_t hi,
                std::size_t ql, std::size_t qr, double delta) {
    if (qr <= lo || hi <= ql) return;
    if (ql <= lo && hi <= qr) {
      add_[node] += delta;
      return;
    }
    const std::size_t mid = (lo + hi) / 2;
    rangeAdd(2 * node, lo, mid, ql, qr, delta);
    rangeAdd(2 * node + 1, mid, hi, ql, qr, delta);
    min_[node] = std::min(min_[2 * node] + add_[2 * node],
                          min_[2 * node + 1] + add_[2 * node + 1]);
  }

  std::size_t n_ = 0;
  std::size_t size_ = 0;
  std::vector<double> min_;  ///< subtree minimum, excluding this node's add
  std::vector<double> add_;  ///< pending uniform add for the whole subtree
};

/// Algorithm 1's segment loop as it was before the saturation exit: every
/// segment is scanned against the recursive tree.
inline std::vector<double> scheduleSingleMachineReference(
    std::span<const double> deadlines, double speed,
    std::span<const SegmentJob> sortedSegments) {
  const int n = static_cast<int>(deadlines.size());
  std::vector<double> t(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return t;

  RecursiveSuffixSlackTree slack(deadlines);

  for (const SegmentJob& seg : sortedSegments) {
    if (seg.slope <= 0.0) continue;
    const std::size_t j = static_cast<std::size_t>(seg.task);
    const double contribution =
        std::max(0.0, std::min(seg.flops / speed, slack.suffixMin(j)));
    if (contribution <= 0.0) continue;
    t[j] += contribution;
    slack.suffixAdd(j, -contribution);
  }
  return t;
}

}  // namespace dsct::testing
