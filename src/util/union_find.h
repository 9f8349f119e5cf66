// Copyright 2026 The ONEX Reproduction Authors.
// Disjoint-set forest with union by rank and path halving. Simulates
// SP-Space group merges (paper Sec. 4.2) under increasing similarity
// thresholds: groups k and l merge once ST' - ST >= Dc(k, l), so sweeping
// Dc edges in sorted order (Kruskal-style) yields the exact thresholds at
// which half / all groups have merged. The tests use it as the reference
// for ComputeMergeThresholds' spanning-tree pass.

#ifndef ONEX_UTIL_UNION_FIND_H_
#define ONEX_UTIL_UNION_FIND_H_

#include <cstddef>
#include <numeric>
#include <vector>

namespace onex {

/// Disjoint-set forest over the integers [0, n).
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), rank_(n, 0), components_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  /// Representative of x's component (with path halving).
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Merges the components of a and b. Returns true if they were distinct.
  bool Union(size_t a, size_t b) {
    size_t ra = Find(a);
    size_t rb = Find(b);
    if (ra == rb) return false;
    if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    if (rank_[ra] == rank_[rb]) ++rank_[ra];
    --components_;
    return true;
  }

  /// True when a and b are in the same component.
  bool Connected(size_t a, size_t b) { return Find(a) == Find(b); }

  /// Number of remaining components.
  size_t components() const { return components_; }

  /// Total number of elements.
  size_t size() const { return parent_.size(); }

 private:
  std::vector<size_t> parent_;
  std::vector<uint8_t> rank_;
  size_t components_;
};

}  // namespace onex

#endif  // ONEX_UTIL_UNION_FIND_H_
