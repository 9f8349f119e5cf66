// Incremental maintenance of a built ONEX base (OnexBase::AppendSeries
// / AppendBatch). The paper defers base maintenance to its tech report;
// the natural incremental form of Algorithm 1 is implemented here:
// every subsequence of each new series goes through the build's own
// GroupAssigner (group_builder.h), joining its nearest in-radius
// representative (updating that group's running average) or founding a
// new group, after which the affected per-length derived structures
// (member sort, envelopes, sum order, SP-Space markers) are rebuilt by
// BuildGtiEntry. Its one pass over the representative pairs (Dc, never
// stored) costs O(g^2 L) per length, lane-batched like the assignment
// scan — the same order as one Fig. 5 build step for that length —
// which is why AppendBatch amortizes: a batch of N series pays that
// rebuild once per length instead of N times (WAL replay leans on
// this), while the assignment itself is O(subsequences * g * L) either
// way, identical to the offline loop.

#include <set>
#include <utility>
#include <vector>

#include "core/group_builder.h"
#include "core/gti.h"
#include "core/onex_base.h"

namespace onex {

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
    // The frozen groups' members, in stored order, then every new
    // subsequence of this length.
    const GtiEntry* frozen = gti_.Find(length);
    std::vector<SubsequenceRef> refs;
    if (frozen != nullptr) {
      for (const LsiEntry& lsi : frozen->groups) {
        for (const LsiMember& member : lsi.members) refs.push_back(member.ref);
      }
    }
    for (uint32_t id = first_id; id < end_id; ++id) {
      const TimeSeries& stored = dataset_[id];
      if (!options_.lengths.Contains(length, stored.length())) continue;
      for (uint32_t j = 0; j + length <= stored.length(); ++j) {
        refs.push_back({id, j, static_cast<uint32_t>(length)});
      }
    }
    // The build's assignment rule, so single, batch and offline grouping
    // decisions cannot diverge. Reconstituting a frozen group re-adds
    // its members in stored order, which gives the running mean its
    // member count.
    GroupAssigner assigner(dataset_, length, options_.st, std::move(refs));
    if (frozen != nullptr) {
      for (const LsiEntry& lsi : frozen->groups) {
        if (!lsi.members.empty()) assigner.FoundGroup(lsi.members.size());
      }
    }
    assigner.AssignRest();
    gti_.Insert(BuildGtiEntry(assigner, options_.st, options_.window_ratio,
                              options_.compute_sp_space));
  }
  RefreshDerivedState();
  return Status::OK();
}

}  // namespace onex
