#include "core/group_builder.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "distance/euclidean.h"

namespace onex {

GroupAssigner::GroupAssigner(size_t length, double st,
                             std::vector<SimilarityGroup> groups,
                             LaneKernel kernel)
    : length_(length), kernel_(kernel), groups_(std::move(groups)) {
  // Radius in *raw* ED units: sqrt(L) * ST / 2 (Algorithm 1 line 15).
  const double radius = std::sqrt(static_cast<double>(length)) * st / 2.0;
  radius_sq_ = radius * radius;
  blocks_.assign(EdBlockDoubles(groups_.size(), length_), 0.0);
  for (size_t k = 0; k < groups_.size(); ++k) StoreLane(k);
}

void GroupAssigner::StoreLane(size_t k) {
  StoreEdLane(blocks_, k, groups_[k].representative());
}

void GroupAssigner::Assign(SubsequenceRef ref,
                           std::span<const double> values) {
  assert(values.size() == length_);
  // Find the nearest representative (lines 12-14), each block's EDs
  // abandoned at the better of the running minimum and the join radius.
  double min_sq = std::numeric_limits<double>::infinity();
  size_t min_k = 0;
  std::array<double, kEdBatchLanes> d_sq;
  for (size_t first = 0; first < groups_.size(); first += kEdBatchLanes) {
    const size_t count = std::min(kEdBatchLanes, groups_.size() - first);
    SquaredEuclideanBatchWith(
        kernel_, values,
        std::span<const double>(blocks_).subspan(first * length_,
                                                 kEdBatchLanes * length_),
        count, std::min(min_sq, radius_sq_), d_sq);
    for (size_t l = 0; l < count; ++l) {
      if (d_sq[l] < min_sq) {
        min_sq = d_sq[l];
        min_k = first + l;
      }
    }
  }
  // With no group yet there is nothing to join, whatever the radius.
  if (!groups_.empty() && min_sq <= radius_sq_) {
    groups_[min_k].Add(ref, values);  // Lines 16-17.
    StoreLane(min_k);
    return;
  }
  groups_.emplace_back(length_, ref, values);  // Lines 19-20.
  blocks_.resize(EdBlockDoubles(groups_.size(), length_), 0.0);
  StoreLane(groups_.size() - 1);
}

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

  GroupAssigner assigner(length, st);
  for (const SubsequenceRef& ref : refs) {
    assigner.Assign(ref, ref.View(dataset));
  }
  return std::move(assigner).TakeGroups();
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
