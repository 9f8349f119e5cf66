#include "core/sp_space.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstdint>
#include <limits>
#include <numeric>

namespace onex {

MergeThresholds ComputeMergeThresholds(std::span<const double> upper,
                                       size_t g, double st,
                                       PrimScratch& scratch) {
  MergeThresholds result{st, st};
  if (g <= 1) return result;
  assert(scratch.rest.size() >= g - 1);
  // Dense Prim from group 0 over the complete representative graph.
  // rest[i] is one of the n groups not yet in the tree, key[i] its
  // lightest edge into it; both shrink by one (swap-remove) as each
  // group joins.
  uint32_t* rest = scratch.rest.data();
  double* key = scratch.key.data();
  double* weights = scratch.weights.data();
  size_t n = g - 1;
  std::iota(rest, rest + n, 1u);
  std::fill(key, key + n, std::numeric_limits<double>::infinity());
  size_t u = 0;
  for (size_t joined = 0; n > 0; ++joined) {
    size_t best = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t v = rest[i];
      const double d = upper[v < u ? UpperTriangleIndex(v, u, g)
                                   : UpperTriangleIndex(u, v, g)];
      if (d < key[i]) key[i] = d;
      if (key[i] < key[best]) best = i;
    }
    weights[joined] = key[best];
    u = rest[best];
    --n;
    rest[best] = rest[n];
    key[best] = key[n];
  }
  // A Kruskal sweep's i-th successful union fires at ST' = st + (i-th
  // smallest MST weight) and leaves g - i groups; "half merged" is the
  // first union that leaves at most ceil(g/2), "final" the last one.
  const size_t half = g - (g + 1) / 2 - 1;
  std::nth_element(weights, weights + half, weights + (g - 1));
  result.st_half = st + weights[half];
  result.st_final = st + *std::max_element(weights + half, weights + (g - 1));
  return result;
}

SimilarityDegree ParseDegree(const std::string& token) {
  if (token.empty()) return SimilarityDegree::kMedium;
  switch (std::tolower(static_cast<unsigned char>(token[0]))) {
    case 's': return SimilarityDegree::kStrict;
    case 'l': return SimilarityDegree::kLoose;
    default:  return SimilarityDegree::kMedium;
  }
}

void SpSpace::AddLength(size_t length, MergeThresholds local) {
  locals_.push_back({length, local});
}

MergeThresholds SpSpace::Local(size_t length) const {
  for (const auto& [len, t] : locals_) {
    if (len == length) return t;
  }
  return {0.0, 0.0};
}

MergeThresholds SpSpace::Global() const {
  MergeThresholds global{0.0, 0.0};
  for (const auto& [len, t] : locals_) {
    global.st_half = std::max(global.st_half, t.st_half);
    global.st_final = std::max(global.st_final, t.st_final);
  }
  return global;
}

std::pair<double, double> SpSpace::Recommend(SimilarityDegree degree,
                                             size_t length) const {
  MergeThresholds t = length != 0 ? Local(length) : Global();
  if (t.st_half == 0.0 && t.st_final == 0.0) t = Global();
  switch (degree) {
    case SimilarityDegree::kStrict: return {0.0, t.st_half};
    case SimilarityDegree::kMedium: return {t.st_half, t.st_final};
    case SimilarityDegree::kLoose:  return {t.st_final, 1.5 * t.st_final};
  }
  return {0.0, t.st_half};
}

SimilarityDegree SpSpace::Classify(double st, size_t length) const {
  MergeThresholds t = length != 0 ? Local(length) : Global();
  if (t.st_half == 0.0 && t.st_final == 0.0) t = Global();
  if (st <= t.st_half) return SimilarityDegree::kStrict;
  if (st < t.st_final) return SimilarityDegree::kMedium;
  return SimilarityDegree::kLoose;
}

}  // namespace onex
