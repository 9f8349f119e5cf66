// Copyright 2026 The ONEX Reproduction Authors.
// Algorithm 1 of the paper: offline construction of ONEX similarity
// groups for each subsequence length. Subsequence order is randomized
// (RANDOMIZE-IN-PLACE) to remove data-order bias; each subsequence joins
// the nearest representative within raw-ED radius sqrt(L) * ST / 2
// (equivalently normalized ED <= ST/2) or founds a new group.
//
// GroupAssigner is that assignment rule, the one copy of it: the build,
// appends (maintenance.cc) and the threshold refiner's split all run
// it. It scores the representatives kEdBatchLanes at a time, one per
// vector lane of SquaredEuclideanBatch, with the scalar kernel's bits,
// so its groups are those of a one-representative-at-a-time scan.

#ifndef ONEX_CORE_GROUP_BUILDER_H_
#define ONEX_CORE_GROUP_BUILDER_H_

#include <map>
#include <span>
#include <vector>

#include "core/group.h"
#include "core/options.h"
#include "dataset/dataset.h"
#include "distance/lanes.h"
#include "util/rng.h"

namespace onex {

/// The nearest-representative scan over the groups of one length
/// (Algorithm 1 lines 12-20). It owns the groups and a lane-major copy
/// of their representatives, kEdBatchLanes to a block: Add rewrites
/// the joined group's lane, a new group takes the next one. Each block
/// is scored against the running minimum (capped at the radius) as of
/// its start, and results apply in group order with a strict `<`. A
/// block that stops early held no lane under that threshold, and a
/// running minimum only falls, so the chosen group, ties included, is
/// the one a scalar scan that abandons each ED at min(running minimum,
/// radius) chooses.
class GroupAssigner {
 public:
  /// Assigns subsequences of `length` at similarity threshold `st`
  /// into `groups` (all of that length), founding new ones after them.
  explicit GroupAssigner(size_t length, double st,
                         std::vector<SimilarityGroup> groups = {},
                         LaneKernel kernel = DefaultLaneKernel());

  /// Joins `ref` (with values `values`) to the nearest representative
  /// within the radius, or founds a group with it.
  void Assign(SubsequenceRef ref, std::span<const double> values);

  /// Groups so far: the representatives the next Assign scores.
  size_t size() const { return groups_.size(); }

  /// The groups, in founding order.
  std::vector<SimilarityGroup> TakeGroups() && { return std::move(groups_); }

 private:
  /// Copies group k's representative into its lane.
  void StoreLane(size_t k);

  size_t length_;
  double radius_sq_;  ///< Squared raw-ED join radius.
  LaneKernel kernel_;
  std::vector<SimilarityGroup> groups_;
  /// The representatives as SquaredEuclideanBatch blocks (StoreEdLane);
  /// unused lanes are 0.
  std::vector<double> blocks_;
};

/// Builds the similarity groups of one specific length over `dataset`.
/// `rng` drives the order randomization; reusing one Rng across lengths
/// keeps whole-base builds deterministic for a given seed.
std::vector<SimilarityGroup> BuildGroupsForLength(const Dataset& dataset,
                                                  size_t length, double st,
                                                  Rng* rng);

/// Runs BuildGroupsForLength for every length in options.lengths,
/// returning length -> groups. This is the expensive offline phase the
/// paper measures in Fig. 5.
std::map<size_t, std::vector<SimilarityGroup>> BuildAllGroups(
    const Dataset& dataset, const OnexOptions& options);

}  // namespace onex

#endif  // ONEX_CORE_GROUP_BUILDER_H_
