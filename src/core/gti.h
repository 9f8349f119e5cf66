// Copyright 2026 The ONEX Reproduction Authors.
// Global Time Index (paper Sec. 4.3): per-length directory over the
// groups. Stores the group list, the sum-of-Dc sorted array S_i(k, sum_k)
// that seeds the median-out representative search (Sec. 5.3), and the
// per-length SThalf / STfinal markers of the SP-Space (Sec. 4.2). The
// pairwise Inter-Representative Distances Dc (Def. 10) they are derived
// from exist only while a length is built: no query reads Dc itself,
// so an entry holds O(g) GTI state, not O(g^2).
//
// A length's entry is built in three steps. FreezeGroups and
// PairwisePass::Finish allocate what the entry keeps, on the thread
// that builds the base; between them, PairwisePass::Run scores every
// representative pair, read from the scan's lane-major blocks, and
// runs the Prim pass, in buffers the PairwisePass constructor
// allocated, so it can run on a WorkPool worker (OnexBase::Build) while
// the builder freezes other lengths.

#ifndef ONEX_CORE_GTI_H_
#define ONEX_CORE_GTI_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/group_builder.h"
#include "core/lsi.h"
#include "core/sp_space.h"
#include "distance/lanes.h"

namespace onex {

/// Everything GTI knows about one length.
struct GtiEntry {
  size_t length = 0;
  /// The groups of this length; index into this vector = group id k.
  std::vector<LsiEntry> groups;
  /// (group id, sum of its Dc row), sorted ascending by sum.
  std::vector<std::pair<uint32_t, double>> sum_sorted;
  /// Local similarity-threshold markers (Sec. 4.2); st_half is the ST'
  /// at which half the groups of this length have merged, st_final when
  /// all have. Both equal the base ST when the length has one group.
  double st_half = 0.0;
  double st_final = 0.0;

  size_t NumGroups() const { return groups.size(); }

  /// GTI bytes: identifiers, sums, thresholds (Table 4 split).
  size_t GtiMemoryBytes() const {
    return sum_sorted.capacity() * sizeof(std::pair<uint32_t, double>) +
           2 * sizeof(double);
  }

  /// LSI bytes aggregated over the groups of this length.
  size_t LsiMemoryBytes() const {
    size_t total = 0;
    for (const auto& g : groups) total += g.MemoryBytes();
    return total;
  }
};

/// Envelope band for subsequences of `length` points: window_ratio *
/// length, rounded up; the full length for a negative or NaN ratio, and
/// at most the full length (so no ratio reaches an out-of-range cast).
size_t EnvelopeWindow(double window_ratio, size_t length);

/// The pairwise pass over one length's representatives (Def. 10): the
/// normalized ED of every pair k < l, each computed once, added to the
/// row sums of both, every row receiving its terms in ascending l; with
/// `compute_sp_space`, each pair's distance is also kept, in (k, l > k)
/// order (the strict upper triangle), for the SP-Space markers' Prim
/// pass. For each k the representatives l > k are scored kEdBatchLanes
/// at a time through SquaredEuclideanBatch, so every distance and sum
/// is that of a scalar NormalizedEuclidean loop, bit for bit. The
/// representatives are read from their lane-major blocks only.
///
/// The constructor allocates everything Run writes, so Run allocates
/// nothing and OnexBase::Build runs it on a pool worker.
class PairwisePass {
 public:
  /// `blocks` holds `groups` representatives of `length` points
  /// lane-major, as GroupAssigner::blocks() does, lanes past `groups`
  /// finite, and must outlive the pass. `st` is the base similarity
  /// threshold.
  PairwisePass(std::span<const double> blocks, size_t groups, size_t length,
               double st, bool compute_sp_space);

  /// Scores the pairs, then, with compute_sp_space, runs the Prim pass.
  void Run(LaneKernel kernel = DefaultLaneKernel());

  /// Row sums, by group id.
  std::span<const double> sums() const { return sums_; }
  /// The strict upper triangle of Dc; empty without compute_sp_space.
  std::span<const double> dc() const { return {dc_.get(), dc_size_}; }
  /// Writes the sum-sorted array and the markers into `entry`.
  void Finish(GtiEntry* entry) const;

 private:
  std::span<const double> blocks_;
  size_t length_;
  double st_;
  bool compute_sp_space_;
  std::vector<double> row_;   ///< Representative k, gathered from blocks_.
  std::vector<double> sq_;    ///< One row's squared distances.
  std::vector<double> sums_;
  std::unique_ptr<double[]> dc_;  ///< Not filled until Run.
  size_t dc_size_ = 0;
  PrimScratch prim_;
  MergeThresholds thresholds_;  ///< Both st without compute_sp_space.
};

/// Freezes one length's groups into a GtiEntry's LsiEntries: final
/// representatives (a singleton keeps none: its member is its
/// representative), members in assignment order, then sorted by
/// normalized ED to the representative, and envelopes (band =
/// window_ratio * length). Leaves the GTI state to a PairwisePass.
GtiEntry FreezeGroups(const GroupAssigner& groups, double window_ratio);

/// Builds the frozen GtiEntry for one length on the calling thread:
/// FreezeGroups, then a PairwisePass, from which it derives the
/// sum-sorted array and, when requested, the merge thresholds. Dc is
/// freed before returning. `st` is the base similarity threshold.
GtiEntry BuildGtiEntry(const GroupAssigner& groups, double st,
                       double window_ratio, bool compute_sp_space);

/// The full index: one GtiEntry per constructed length.
class GlobalTimeIndex {
 public:
  GlobalTimeIndex() = default;

  void Insert(GtiEntry entry) {
    entries_[entry.length] = std::move(entry);
  }

  /// Entry for exactly `length`, or nullptr.
  const GtiEntry* Find(size_t length) const {
    auto it = entries_.find(length);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// All indexed lengths, ascending.
  std::vector<size_t> Lengths() const {
    std::vector<size_t> lengths;
    lengths.reserve(entries_.size());
    for (const auto& [len, entry] : entries_) lengths.push_back(len);
    return lengths;
  }

  const std::map<size_t, GtiEntry>& entries() const { return entries_; }
  std::map<size_t, GtiEntry>* mutable_entries() { return &entries_; }

 private:
  std::map<size_t, GtiEntry> entries_;
};

}  // namespace onex

#endif  // ONEX_CORE_GTI_H_
