// Incremental maintenance of a built ONEX base (OnexBase::AppendSeries
// / AppendBatch). The paper defers base maintenance to its tech report;
// the natural incremental form of Algorithm 1 is implemented here:
// every subsequence of each new series is assigned to its nearest
// in-radius representative (updating that group's running average) or
// founds a new group, after which the affected per-length derived
// structures (member sort, envelopes, sum order, SP-Space markers) are
// rebuilt by BuildGtiEntry. Its one pass over the representative pairs
// (Dc, never stored) costs O(g^2 L) per length — the same order as one
// Fig. 5 build step for that length — which is why AppendBatch
// amortizes: a batch of N series pays that rebuild once per length
// instead of N times (WAL replay leans on this), while the assignment
// itself is O(subsequences * g * L) either way, identical to the
// offline loop.

#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "core/group.h"
#include "core/gti.h"
#include "core/onex_base.h"
#include "distance/euclidean.h"

namespace onex {
namespace {

/// Assigns every subsequence of `series` at `length` into `groups`
/// (nearest in-radius representative, or a new group) — the inner loop
/// of Algorithm 1's incremental form, shared by the single and batch
/// paths so their grouping decisions cannot diverge.
void AssignSubsequences(const Dataset& dataset, uint32_t series_id,
                        size_t length, double radius_sq,
                        std::vector<SimilarityGroup>& groups) {
  const TimeSeries& stored = dataset[series_id];
  for (uint32_t j = 0; j + length <= stored.length(); ++j) {
    const SubsequenceRef ref{series_id, j, static_cast<uint32_t>(length)};
    const auto values = ref.View(dataset);
    double min_sq = std::numeric_limits<double>::infinity();
    size_t min_k = 0;
    for (size_t k = 0; k < groups.size(); ++k) {
      const double d_sq = SquaredEuclideanEarlyAbandon(
          values,
          std::span<const double>(groups[k].representative().data(), length),
          std::min(min_sq, radius_sq));
      if (d_sq < min_sq) {
        min_sq = d_sq;
        min_k = k;
      }
    }
    if (!groups.empty() && min_sq <= radius_sq) {
      groups[min_k].Add(ref, values);
    } else {
      groups.emplace_back(length, ref, values);
    }
  }
}

/// Reconstitutes construction-time groups from the frozen entry so the
/// running-average update has the member counts it needs.
std::vector<SimilarityGroup> ReconstituteGroups(const Dataset& dataset,
                                                const GtiEntry* frozen,
                                                size_t length) {
  std::vector<SimilarityGroup> groups;
  if (frozen == nullptr) return groups;
  groups.reserve(frozen->NumGroups());
  for (const LsiEntry& lsi : frozen->groups) {
    if (lsi.members.empty()) continue;
    SimilarityGroup group(length, lsi.members[0].ref,
                          lsi.members[0].ref.View(dataset));
    for (size_t m = 1; m < lsi.members.size(); ++m) {
      group.Add(lsi.members[m].ref, lsi.members[m].ref.View(dataset));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace

Status OnexBase::AppendSeries(TimeSeries series) {
  std::vector<TimeSeries> batch;
  batch.push_back(std::move(series));
  return AppendBatch(std::move(batch));
}

Status OnexBase::AppendBatch(std::vector<TimeSeries> batch) {
  for (const TimeSeries& series : batch) {
    if (series.empty()) {
      return Status::InvalidArgument("cannot append an empty series");
    }
    Status values = CheckSeriesValues(series);
    if (!values.ok()) return values;
  }
  if (batch.empty()) return Status::OK();

  const uint32_t first_id = static_cast<uint32_t>(dataset_.size());
  for (TimeSeries& series : batch) dataset_.Add(std::move(series));
  const uint32_t end_id = static_cast<uint32_t>(dataset_.size());

  // Union of candidate lengths across the new series; each series only
  // contributes subsequences at the lengths its own LengthsFor yields,
  // exactly as the sequential path would.
  std::set<size_t> lengths;
  for (uint32_t id = first_id; id < end_id; ++id) {
    for (size_t length : options_.lengths.LengthsFor(dataset_[id].length())) {
      lengths.insert(length);
    }
  }

  for (size_t length : lengths) {
    std::vector<SimilarityGroup> groups =
        ReconstituteGroups(dataset_, gti_.Find(length), length);
    const double radius =
        std::sqrt(static_cast<double>(length)) * options_.st / 2.0;
    const double radius_sq = radius * radius;
    for (uint32_t id = first_id; id < end_id; ++id) {
      if (!options_.lengths.Contains(length, dataset_[id].length())) {
        continue;
      }
      AssignSubsequences(dataset_, id, length, radius_sq, groups);
    }
    gti_.Insert(BuildGtiEntry(dataset_, std::move(groups), options_.st,
                              options_.window_ratio,
                              options_.compute_sp_space));
  }
  RefreshDerivedState();
  return Status::OK();
}

}  // namespace onex
