// Copyright 2026 The ONEX Reproduction Authors.
// Algorithm 1 of the paper: offline construction of ONEX similarity
// groups for each subsequence length. Subsequence order is randomized
// (RANDOMIZE-IN-PLACE) to remove data-order bias; each subsequence joins
// the nearest representative within raw-ED radius sqrt(L) * ST / 2
// (equivalently normalized ED <= ST/2) or founds a new group, whose
// representative is the running point-wise mean of its members (Def. 7).
//
// GroupAssigner is that assignment rule, the one copy of it: the build,
// appends (maintenance.cc) and the threshold refiner all run it. It
// scores the representatives kEdBatchLanes at a time, one per vector
// lane of SquaredEuclideanBatch, with the scalar kernel's bits, so its
// groups are those of a one-representative-at-a-time scan.
//
// Its state is a few flat arrays sized by its constructor for the worst
// case of one group per subsequence; the two per-point ones are mapped,
// not filled (util/page_array.h: a page costs memory once written). So
// its scan allocates nothing, and OnexBase::Build runs each length's
// scan as a task on the process's WorkPool while the thread that built
// the assigner owns every byte (see util/work_pool.h for why that
// matters). The mapping takes 16 bytes of address space per point of
// every subsequence (2 n L doubles for n subsequences of length L),
// counted in full against an address-space limit or strict overcommit
// even where untouched; Build keeps a few lengths' assigners at a time
// (onex_base.h) and returns ResourceExhausted when one cannot be
// mapped.

#ifndef ONEX_CORE_GROUP_BUILDER_H_
#define ONEX_CORE_GROUP_BUILDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dataset/dataset.h"
#include "dataset/subsequence.h"
#include "distance/lanes.h"
#include "util/page_array.h"
#include "util/rng.h"

namespace onex {

/// The nearest-representative scan over the groups of one length
/// (Algorithm 1 lines 12-20), over a fixed list of subsequences taken
/// in order. Representatives are kept lane-major, kEdBatchLanes to a
/// block: a join rewrites its group's lane, a new group takes the next
/// one. Each block is scored against the running minimum (capped at the
/// radius) as of its start, and results apply in group order with a
/// strict `<`. A block that stops early held no lane under that
/// threshold, and a running minimum only falls, so the chosen group,
/// ties included, is the one a scalar scan that abandons each ED at
/// min(running minimum, radius) chooses.
class GroupAssigner {
 public:
  /// Assigns `refs`, in this order, to groups of subsequences of
  /// `length` of `dataset` at similarity threshold `st`. Allocates
  /// room for every ref and as many groups, and throws std::bad_alloc
  /// when it cannot; `dataset` must outlive the assigner and stay
  /// unchanged.
  GroupAssigner(const Dataset& dataset, size_t length, double st,
                std::vector<SubsequenceRef> refs,
                LaneKernel kernel = DefaultLaneKernel());

  /// Joins the next ref to the nearest representative within the
  /// radius among the open groups, or founds a group with it.
  /// Allocates nothing.
  void AssignNext();

  /// AssignNext for every ref not yet assigned. Allocates nothing.
  void AssignRest();

  /// The next `members` refs (at least one) form a new group, founded
  /// by the first, with no scan: this reconstitutes a stored grouping.
  void FoundGroup(size_t members);

  /// Later assignments scan only the groups founded from here on; the
  /// refiner's split re-clusters each old group on its own.
  void CloseGroups() { first_open_ = groups_; }

  const Dataset& dataset() const { return *dataset_; }
  size_t length() const { return length_; }
  /// Groups so far.
  size_t size() const { return groups_; }
  /// Every ref, in assignment order.
  std::span<const SubsequenceRef> refs() const { return refs_; }
  /// The group of each ref assigned so far.
  std::span<const uint32_t> group_of() const {
    return std::span<const uint32_t>(group_of_).first(assigned_);
  }
  /// Members of group k.
  uint32_t members(size_t k) const { return counts_[k]; }

  /// Group k's representative: the point-wise mean of its members.
  std::vector<double> Representative(size_t k) const;

  /// The representatives as SquaredEuclideanBatch blocks (StoreEdLane
  /// layout), whole blocks; lanes past size() are 0.
  std::span<const double> blocks() const;

 private:
  /// Adds the next ref to group k, or founds group size() with it.
  void Join(size_t k, std::span<const double> values);
  void Found(std::span<const double> values);
  /// Point-wise member sums of group k, in storage_.
  double* SumsOf(size_t k);

  const Dataset* dataset_;
  size_t length_;
  double radius_sq_;  ///< Squared raw-ED join radius.
  LaneKernel kernel_;
  std::vector<SubsequenceRef> refs_;
  size_t assigned_ = 0;
  size_t groups_ = 0;
  size_t first_open_ = 0;  ///< Groups before it are not scanned.
  std::vector<uint32_t> group_of_;  ///< One per ref.
  std::vector<uint32_t> counts_;    ///< Room for one group per ref.
  /// Room for one group per ref in each of two arrays: the lane-major
  /// representatives (sums / count; unused lanes 0), then the member
  /// sums, group-major.
  PageArray<double> storage_;
};

/// Every subsequence of `length` in `dataset` (Algorithm 1 lines 3-4),
/// shuffled by RANDOMIZE-IN-PLACE with `rng`.
std::vector<SubsequenceRef> ShuffledRefs(const Dataset& dataset,
                                         size_t length, Rng* rng);

/// Builds the similarity groups of one specific length over `dataset`:
/// ShuffledRefs through a GroupAssigner. `rng` drives the order
/// randomization; drawing every length from one Rng in ascending order,
/// as OnexBase::Build does, keeps whole-base builds deterministic for a
/// given seed.
GroupAssigner BuildGroupsForLength(const Dataset& dataset, size_t length,
                                   double st, Rng* rng);

}  // namespace onex

#endif  // ONEX_CORE_GROUP_BUILDER_H_
