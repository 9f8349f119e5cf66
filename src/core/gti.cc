#include "core/gti.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "distance/euclidean.h"

namespace onex {

size_t EnvelopeWindow(double window_ratio, size_t length) {
  if (!(window_ratio >= 0.0)) return length;
  return static_cast<size_t>(std::ceil(std::min(window_ratio, 1.0) *
                                       static_cast<double>(length)));
}

PairwisePass::PairwisePass(std::span<const double> blocks, size_t groups,
                           size_t length, double st, bool compute_sp_space)
    : blocks_(blocks),
      length_(length),
      st_(st),
      compute_sp_space_(compute_sp_space),
      row_(length),
      sq_(groups),
      sums_(groups, 0.0),
      prim_(compute_sp_space ? groups : 0),
      thresholds_{st, st} {
  if (compute_sp_space && groups >= 2) {
    dc_size_ = groups * (groups - 1) / 2;
    dc_ = std::make_unique_for_overwrite<double[]>(dc_size_);
  }
}

void PairwisePass::Run(LaneKernel kernel) {
  const size_t g = sums_.size();
  if (g >= 2) {
    const size_t length = length_;
    const double norm = std::sqrt(static_cast<double>(length));
    double* dc = dc_.get();
    for (size_t k = 0; k + 1 < g; ++k) {
      LoadEdLane(blocks_, k, row_);
      // Score from the block holding k + 1; its lanes up to k go unused.
      const size_t first = (k + 1) - (k + 1) % kEdBatchLanes;
      SquaredEuclideanBatchWith(kernel, row_,
                                blocks_.subspan(first * length), g - first,
                                std::numeric_limits<double>::infinity(),
                                std::span<double>(sq_).subspan(first));
      for (size_t l = k + 1; l < g; ++l) {
        // NormalizedEuclidean's arithmetic: sqrt of the sum over sqrt(L).
        const double d = std::sqrt(sq_[l]) / norm;
        sums_[k] += d;
        sums_[l] += d;
        if (dc != nullptr) *dc++ = d;
      }
    }
  }
  // Local SP-Space markers (Sec. 4.2).
  if (compute_sp_space_) {
    thresholds_ = ComputeMergeThresholds(dc(), g, st_, prim_);
  }
}

void PairwisePass::Finish(GtiEntry* entry) const {
  // Group ids sorted by their Dc row sum: the seed order for the
  // median-out representative search (Sec. 5.3).
  const size_t g = sums_.size();
  entry->sum_sorted.reserve(g);
  for (size_t k = 0; k < g; ++k) {
    entry->sum_sorted.push_back({static_cast<uint32_t>(k), sums_[k]});
  }
  std::sort(entry->sum_sorted.begin(), entry->sum_sorted.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  entry->st_half = thresholds_.st_half;
  entry->st_final = thresholds_.st_final;
}

GtiEntry FreezeGroups(const GroupAssigner& groups, double window_ratio) {
  GtiEntry entry;
  const size_t g = groups.size();
  if (g == 0) return entry;
  const Dataset& dataset = groups.dataset();
  entry.length = groups.length();
  const size_t window = EnvelopeWindow(window_ratio, entry.length);

  // Members in assignment order, group by group.
  entry.groups.resize(g);
  for (size_t k = 0; k < g; ++k) {
    entry.groups[k].members.reserve(groups.members(k));
  }
  const std::span<const SubsequenceRef> refs = groups.refs();
  const std::span<const uint32_t> group_of = groups.group_of();
  for (size_t i = 0; i < group_of.size(); ++i) {
    entry.groups[group_of[i]].members.push_back({refs[i], 0.0});
  }

  // Freeze each group: final representative, members sorted by
  // normalized ED to it, envelope around it. A singleton's
  // representative is its member's values (its running mean is that
  // member), so it keeps no copy and its one ED is 0.
  for (size_t k = 0; k < g; ++k) {
    LsiEntry& lsi = entry.groups[k];
    if (lsi.members.size() > 1) lsi.representative = groups.Representative(k);
    const std::span<const double> rep = RepresentativeOf(lsi, dataset);
    for (LsiMember& member : lsi.members) {
      member.ed_to_rep = NormalizedEuclidean(member.ref.View(dataset), rep);
    }
    std::sort(lsi.members.begin(), lsi.members.end(),
              [](const LsiMember& a, const LsiMember& b) {
                return a.ed_to_rep < b.ed_to_rep;
              });
    lsi.envelope = ComputeEnvelope(rep, window);
  }
  return entry;
}

GtiEntry BuildGtiEntry(const GroupAssigner& groups, double st,
                       double window_ratio, bool compute_sp_space) {
  GtiEntry entry = FreezeGroups(groups, window_ratio);
  if (entry.NumGroups() == 0) return entry;
  PairwisePass pass(groups.blocks(), groups.size(), groups.length(), st,
                    compute_sp_space);
  pass.Run();
  pass.Finish(&entry);
  return entry;
}

}  // namespace onex
