// Copyright 2026 The ONEX Reproduction Authors.
// Algorithm 1 of the paper: offline construction of ONEX similarity
// groups for each subsequence length. Subsequence order is randomized
// (RANDOMIZE-IN-PLACE) to remove data-order bias; each subsequence joins
// the nearest representative within raw-ED radius sqrt(L) * ST / 2
// (equivalently normalized ED <= ST/2) or founds a new group.

#ifndef ONEX_CORE_GROUP_BUILDER_H_
#define ONEX_CORE_GROUP_BUILDER_H_

#include <map>
#include <vector>

#include "core/group.h"
#include "core/options.h"
#include "dataset/dataset.h"
#include "util/rng.h"

namespace onex {

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
