#include "core/gti.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/sp_space.h"
#include "distance/euclidean.h"

namespace onex {

size_t EnvelopeWindow(double window_ratio, size_t length) {
  if (!(window_ratio >= 0.0)) return length;
  return static_cast<size_t>(std::ceil(std::min(window_ratio, 1.0) *
                                       static_cast<double>(length)));
}

std::vector<double> PairwiseRowSums(
    std::span<const std::span<const double>> reps, std::vector<double>* dc,
    LaneKernel kernel) {
  const size_t g = reps.size();
  std::vector<double> sums(g, 0.0);
  if (g < 2) return sums;
  const size_t length = reps[0].size();
  const double norm = std::sqrt(static_cast<double>(length));
  // A lane-major copy, unused lanes 0.
  std::vector<double> blocks(EdBlockDoubles(g, length), 0.0);
  for (size_t l = 0; l < g; ++l) StoreEdLane(blocks, l, reps[l]);
  std::vector<double> sq(g);
  for (size_t k = 0; k + 1 < g; ++k) {
    // Score from the block holding k + 1; its lanes up to k go unused.
    const size_t first = (k + 1) - (k + 1) % kEdBatchLanes;
    SquaredEuclideanBatchWith(
        kernel, reps[k],
        std::span<const double>(blocks).subspan(first * length), g - first,
        std::numeric_limits<double>::infinity(),
        std::span<double>(sq).subspan(first));
    for (size_t l = k + 1; l < g; ++l) {
      // NormalizedEuclidean's arithmetic: sqrt of the sum over sqrt(L).
      const double d = std::sqrt(sq[l]) / norm;
      sums[k] += d;
      sums[l] += d;
      if (dc != nullptr) dc->push_back(d);
    }
  }
  return sums;
}

GtiEntry BuildGtiEntry(const Dataset& dataset,
                       std::vector<SimilarityGroup> groups, double st,
                       double window_ratio, bool compute_sp_space) {
  GtiEntry entry;
  if (groups.empty()) return entry;
  entry.length = groups.front().length();
  const size_t length = entry.length;
  const size_t window = EnvelopeWindow(window_ratio, length);

  // Freeze each group into an LsiEntry: final representative, members
  // sorted by normalized ED to it, envelope around it. A singleton's
  // representative is its member's values (SimilarityGroup seeds the
  // running sum with them), so it keeps no copy and its one ED is 0.
  entry.groups.reserve(groups.size());
  for (auto& group : groups) {
    LsiEntry lsi;
    const std::span<const double> rep(group.representative().data(), length);
    lsi.members.reserve(group.size());
    for (const SubsequenceRef& ref : group.members()) {
      lsi.members.push_back({ref, NormalizedEuclidean(ref.View(dataset), rep)});
    }
    std::sort(lsi.members.begin(), lsi.members.end(),
              [](const LsiMember& a, const LsiMember& b) {
                return a.ed_to_rep < b.ed_to_rep;
              });
    lsi.envelope = ComputeEnvelope(rep, window);
    if (group.size() > 1) lsi.representative = group.representative();
    entry.groups.push_back(std::move(lsi));
  }

  // Pairwise Inter-Representative Distances Dc (Def. 10), normalized ED,
  // each computed once in (k, l > k) order. The row sums of
  // S_i(k, sum_k) accumulate in the same pass, every row receiving its
  // terms in ascending l. Dc itself is kept (as its strict upper
  // triangle) only when the SP-Space markers need it, and dies with this
  // call.
  const size_t g = entry.groups.size();
  std::vector<std::span<const double>> reps;
  reps.reserve(g);
  for (const LsiEntry& group : entry.groups) {
    reps.push_back(RepresentativeOf(group, dataset));
  }
  std::vector<double> dc;
  if (compute_sp_space) dc.reserve(g * (g - 1) / 2);
  const std::vector<double> sums =
      PairwiseRowSums(reps, compute_sp_space ? &dc : nullptr);

  // Group ids sorted by their Dc row sum: the seed order for the
  // median-out representative search (Sec. 5.3).
  entry.sum_sorted.reserve(g);
  for (size_t k = 0; k < g; ++k) {
    entry.sum_sorted.push_back({static_cast<uint32_t>(k), sums[k]});
  }
  std::sort(entry.sum_sorted.begin(), entry.sum_sorted.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  // Local SP-Space markers (Sec. 4.2).
  if (compute_sp_space) {
    const MergeThresholds t = ComputeMergeThresholds(dc, g, st);
    entry.st_half = t.st_half;
    entry.st_final = t.st_final;
  } else {
    entry.st_half = st;
    entry.st_final = st;
  }
  return entry;
}

}  // namespace onex
