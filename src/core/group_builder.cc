#include "core/group_builder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "distance/euclidean.h"

namespace onex {

std::vector<SimilarityGroup> BuildGroupsForLength(const Dataset& dataset,
                                                  size_t length, double st,
                                                  Rng* rng) {
  // Enumerate all subsequences of this length (Algorithm 1 lines 3-4).
  std::vector<SubsequenceRef> refs;
  for (uint32_t p = 0; p < dataset.size(); ++p) {
    const size_t n = dataset[p].length();
    if (n < length) continue;
    for (uint32_t j = 0; j + length <= n; ++j) {
      refs.push_back({p, j, static_cast<uint32_t>(length)});
    }
  }
  RandomizeInPlace(&refs, rng);

  // Radius in *raw* ED units: sqrt(L) * ST / 2 (Algorithm 1 line 15).
  const double radius =
      std::sqrt(static_cast<double>(length)) * st / 2.0;
  const double radius_sq = radius * radius;

  std::vector<SimilarityGroup> groups;
  for (const SubsequenceRef& ref : refs) {
    const auto values = ref.View(dataset);
    // Find the nearest representative (lines 12-14), abandoning each ED
    // early at the better of the running minimum and the join radius.
    double min_sq = std::numeric_limits<double>::infinity();
    size_t min_k = 0;
    for (size_t k = 0; k < groups.size(); ++k) {
      const double abandon_at = std::min(min_sq, radius_sq);
      const double d_sq = SquaredEuclideanEarlyAbandon(
          values,
          std::span<const double>(groups[k].representative().data(), length),
          abandon_at);
      if (d_sq < min_sq) {
        min_sq = d_sq;
        min_k = k;
      }
    }
    // With no group yet there is nothing to join, whatever the radius.
    if (!groups.empty() && min_sq <= radius_sq) {
      groups[min_k].Add(ref, values);  // Lines 16-17.
    } else {
      groups.emplace_back(length, ref, values);  // Lines 19-20.
    }
  }
  return groups;
}

std::map<size_t, std::vector<SimilarityGroup>> BuildAllGroups(
    const Dataset& dataset, const OnexOptions& options) {
  std::map<size_t, std::vector<SimilarityGroup>> result;
  Rng rng(options.seed);
  // The union of candidate lengths over all series (series may be ragged).
  std::set<size_t> lengths;
  for (size_t p = 0; p < dataset.size(); ++p) {
    for (size_t len : options.lengths.LengthsFor(dataset[p].length())) {
      lengths.insert(len);
    }
  }
  for (size_t len : lengths) {
    result[len] = BuildGroupsForLength(dataset, len, options.st, &rng);
  }
  return result;
}

}  // namespace onex
