// Copyright 2026 The ONEX Reproduction Authors.
// Local Sequence Index (paper Sec. 4.3): the per-group online structure.
// Holds the frozen representative, the members sorted by their ED to the
// representative (driving the value-targeted in-group scan of Sec. 5.3),
// and the LB_Keogh envelope around the representative.

#ifndef ONEX_CORE_LSI_H_
#define ONEX_CORE_LSI_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dataset/subsequence.h"
#include "distance/envelope.h"

namespace onex {

/// One member record: where the subsequence lives and its *normalized*
/// ED to the group representative (the EDk(m, EDm) array of Sec. 4.3).
struct LsiMember {
  SubsequenceRef ref;
  double ed_to_rep = 0.0;
};

/// Frozen per-group index entry.
struct LsiEntry {
  /// Representative R^i_k: point-wise average of the members (Def. 7).
  /// Empty for a singleton, whose representative is its one member's
  /// values bit for bit: read it through RepresentativeOf.
  std::vector<double> representative;
  /// LB_Keogh envelope around the representative (pruning, Sec. 4.3).
  Envelope envelope;
  /// Members sorted ascending by ed_to_rep.
  std::vector<LsiMember> members;

  size_t size() const { return members.size(); }

  /// Heap bytes (paper Table 4 reports LSI sizes: sequence identifiers,
  /// representative vectors, envelopes).
  size_t MemoryBytes() const {
    return representative.capacity() * sizeof(double) +
           envelope.MemoryBytes() + members.capacity() * sizeof(LsiMember);
  }

  /// Index of the member whose ed_to_rep is closest to `target` (binary
  /// search over the sorted array); the starting point of the outward
  /// in-group scan. Returns 0 for an empty entry.
  size_t ClosestMemberTo(double target) const;
};

/// The representative of `group`: its stored vector, or, for a
/// singleton, its member's values in `dataset`, the dataset of the base
/// version `group` belongs to. The entry keeps no pointer into the
/// dataset, so a copied base resolves against its own copy.
inline std::span<const double> RepresentativeOf(const LsiEntry& group,
                                                const Dataset& dataset) {
  if (group.members.size() == 1) {
    return group.members.front().ref.View(dataset);
  }
  return group.representative;
}

}  // namespace onex

#endif  // ONEX_CORE_LSI_H_
