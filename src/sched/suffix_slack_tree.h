// Lazy segment tree over per-task deadline slacks v_i = d_i − prefix_i with
// two operations, both on suffix ranges [j, n): minimum query and uniform
// add. Granting `c` seconds to task j shrinks every slack at or after j by
// `c`, so Algorithm 1's inner loops become O(log n) instead of O(n).
//
// Both operations walk bottom-up over one interleaved {min, add} node array:
// no recursion, and the two fields a step reads sit in one cache line. They
// touch the same canonical nodes of [j, n) as a top-down recursive tree, and
// a query applies each node's ancestor adds in the same order, so it returns
// the recursive tree's double bit for bit (DESIGN.md §20; the recursive tree
// is kept as the test oracle).
//
// Shared between Algorithm 1 (single_machine.cpp, which uses the lazy
// suffixAdd path) and RefineProfile's incremental slack engine
// (slack_engine.cpp, which only rebuilds via assign() and queries — min over
// unmodified leaves is exact in floating point, which is what makes the
// engine bit-identical to a scratch recomputation; see DESIGN.md §11).
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace dsct {

class SuffixSlackTree {
 public:
  SuffixSlackTree() = default;
  explicit SuffixSlackTree(std::span<const double> initial) { assign(initial); }

  /// (Re)build from leaf values, reusing storage when the size is unchanged.
  /// All pending adds are cleared: queries afterwards return exact minima
  /// over the given leaves.
  void assign(std::span<const double> initial) {
    n_ = initial.size();
    size_ = 1;
    while (size_ < n_) size_ <<= 1;
    nodes_.assign(2 * size_, Node{kInf, 0.0});
    for (std::size_t i = 0; i < n_; ++i) nodes_[size_ + i].min = initial[i];
    for (std::size_t i = size_ - 1; i >= 1; --i) {
      nodes_[i].min = std::min(nodes_[2 * i].min, nodes_[2 * i + 1].min);
    }
  }

  /// min_{i >= j} v_i (infinity for j >= n).
  double suffixMin(std::size_t j) const {
    if (j >= n_) return kInf;
    // Canonical nodes of [j, n) taken on the left sit below node l − 1, those
    // taken on the right below node r; each side's minimum already carries
    // the adds of every ancestor climbed so far. The right end stays n: the
    // first node read past the leaves is (n + size) / 2 <= size.
    std::size_t l = j + size_;
    std::size_t r = n_ + size_;
    double left = kInf;
    double right = kInf;
    while (l < r) {
      if (l & 1) left = std::min(left, total(l++));
      if (r & 1) right = std::min(right, total(--r));
      l >>= 1;
      r >>= 1;
      left += nodes_[l - 1].add;
      right += nodes_[r].add;
    }
    // Now l == r. Climb l − 1 and l until they are siblings, then fold the
    // two sides and add the shared ancestors up to the root. (Node 0 is not a
    // tree node; its add stays 0, read only while the left side is empty.)
    std::size_t a = l - 1;
    std::size_t b = r;
    while ((a >> 1) != (b >> 1)) {
      a >>= 1;
      b >>= 1;
      left += nodes_[a].add;
      right += nodes_[b].add;
    }
    double best = std::min(left, right);
    for (std::size_t p = b >> 1; p != 0; p >>= 1) best += nodes_[p].add;
    return best;
  }

  /// v_i += delta for all i >= j.
  void suffixAdd(std::size_t j, double delta) {
    if (j >= n_) return;
    for (std::size_t l = j + size_, r = n_ + size_; l < r; l >>= 1, r >>= 1) {
      if (l & 1) nodes_[l++].add += delta;
      if (r & 1) nodes_[--r].add += delta;
    }
    // Re-pull the ancestors of leaf j. Every other ancestor of a node that
    // took the add straddles n: it is never a canonical node of a suffix, so
    // no query reads its (now stale) minimum, and it never holds an add.
    for (std::size_t p = (j + size_) >> 1; p != 0; p >>= 1) pull(p);
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  struct Node {
    double min;  ///< subtree minimum, excluding this node's add
    double add;  ///< pending uniform add for the whole subtree
  };

  double total(std::size_t p) const { return nodes_[p].min + nodes_[p].add; }

  void pull(std::size_t p) {
    nodes_[p].min = std::min(total(2 * p), total(2 * p + 1));
  }

  std::size_t n_ = 0;
  std::size_t size_ = 0;
  std::vector<Node> nodes_;  ///< 1-based heap order; leaves at [size, 2·size)
};

}  // namespace dsct
