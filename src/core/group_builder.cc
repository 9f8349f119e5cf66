#include "core/group_builder.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "distance/euclidean.h"

namespace onex {

GroupAssigner::GroupAssigner(const Dataset& dataset, size_t length,
                             double st, std::vector<SubsequenceRef> refs,
                             LaneKernel kernel)
    : dataset_(&dataset),
      length_(length),
      kernel_(kernel),
      refs_(std::move(refs)),
      group_of_(refs_.size()),
      counts_(refs_.size()),
      storage_(EdBlockDoubles(refs_.size(), length) +
               refs_.size() * length) {
  // Radius in *raw* ED units: sqrt(L) * ST / 2 (Algorithm 1 line 15).
  const double radius = std::sqrt(static_cast<double>(length)) * st / 2.0;
  radius_sq_ = radius * radius;
}

double* GroupAssigner::SumsOf(size_t k) {
  return storage_.data() + EdBlockDoubles(refs_.size(), length_) +
         k * length_;
}

std::span<const double> GroupAssigner::blocks() const {
  return {storage_.data(), EdBlockDoubles(groups_, length_)};
}

std::vector<double> GroupAssigner::Representative(size_t k) const {
  std::vector<double> rep(length_);
  LoadEdLane(blocks(), k, rep);
  return rep;
}

void GroupAssigner::Join(size_t k, std::span<const double> values) {
  group_of_[assigned_++] = static_cast<uint32_t>(k);
  const double inv_count = 1.0 / static_cast<double>(++counts_[k]);
  double* sum = SumsOf(k);
  const size_t lane = k % kEdBatchLanes;
  double* column = storage_.data() + (k - lane) * length_ + lane;
  for (size_t i = 0; i < length_; ++i) {
    sum[i] += values[i];
    column[i * kEdBatchLanes] = sum[i] * inv_count;
  }
}

void GroupAssigner::Found(std::span<const double> values) {
  const size_t k = groups_++;
  group_of_[assigned_++] = static_cast<uint32_t>(k);
  counts_[k] = 1;
  std::copy(values.begin(), values.end(), SumsOf(k));
  StoreEdLane({storage_.data(), EdBlockDoubles(groups_, length_)}, k,
              values);
}

void GroupAssigner::AssignNext() {
  const std::span<const double> values = refs_[assigned_].View(*dataset_);
  assert(values.size() == length_);
  // Find the nearest open representative (lines 12-14), each block's
  // EDs abandoned at the better of the running minimum and the join
  // radius. The first block may start with closed lanes: each lane's
  // result is its own, so they are scored and skipped.
  double min_sq = std::numeric_limits<double>::infinity();
  size_t min_k = 0;
  std::array<double, kEdBatchLanes> d_sq;
  const std::span<const double> blocks = this->blocks();
  for (size_t first = first_open_ - first_open_ % kEdBatchLanes;
       first < groups_; first += kEdBatchLanes) {
    const size_t count = std::min(kEdBatchLanes, groups_ - first);
    SquaredEuclideanBatchWith(
        kernel_, values,
        blocks.subspan(first * length_, kEdBatchLanes * length_), count,
        std::min(min_sq, radius_sq_), d_sq);
    for (size_t l = std::max(first, first_open_) - first; l < count; ++l) {
      if (d_sq[l] < min_sq) {
        min_sq = d_sq[l];
        min_k = first + l;
      }
    }
  }
  // With no open group there is nothing to join, whatever the radius.
  if (groups_ > first_open_ && min_sq <= radius_sq_) {
    Join(min_k, values);  // Lines 16-17.
  } else {
    Found(values);  // Lines 19-20.
  }
}

void GroupAssigner::AssignRest() {
  while (assigned_ < refs_.size()) AssignNext();
}

void GroupAssigner::FoundGroup(size_t members) {
  assert(members > 0 && assigned_ + members <= refs_.size());
  const size_t k = groups_;
  Found(refs_[assigned_].View(*dataset_));
  for (size_t m = 1; m < members; ++m) {
    Join(k, refs_[assigned_].View(*dataset_));
  }
}

std::vector<SubsequenceRef> ShuffledRefs(const Dataset& dataset,
                                         size_t length, Rng* rng) {
  std::vector<SubsequenceRef> refs;
  for (uint32_t p = 0; p < dataset.size(); ++p) {
    const size_t n = dataset[p].length();
    if (n < length) continue;
    for (uint32_t j = 0; j + length <= n; ++j) {
      refs.push_back({p, j, static_cast<uint32_t>(length)});
    }
  }
  RandomizeInPlace(&refs, rng);
  return refs;
}

GroupAssigner BuildGroupsForLength(const Dataset& dataset, size_t length,
                                   double st, Rng* rng) {
  GroupAssigner groups(dataset, length, st,
                       ShuffledRefs(dataset, length, rng));
  groups.AssignRest();
  return groups;
}

}  // namespace onex
