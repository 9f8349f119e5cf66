// The base OnexBase::Build must produce, assembled one length at a time
// on the calling thread, as the build did before it ran on a WorkPool:
// onex_base_test compares bytes with it and build_allocation_test peak
// memory.

#ifndef ONEX_TESTS_SERIAL_BUILD_H_
#define ONEX_TESTS_SERIAL_BUILD_H_

#include <set>
#include <utility>

#include "core/group_builder.h"
#include "core/gti.h"
#include "core/onex_base.h"
#include "util/rng.h"

namespace onex {

/// Every length's shuffled subsequences drawn from one Rng in ascending
/// length order, each length grouped, then frozen, before the next.
inline OnexBase SerialBuild(const Dataset& dataset,
                            const OnexOptions& options) {
  std::set<size_t> lengths;
  for (size_t p = 0; p < dataset.size(); ++p) {
    for (size_t len : options.lengths.LengthsFor(dataset[p].length())) {
      lengths.insert(len);
    }
  }
  Rng rng(options.seed);
  GlobalTimeIndex gti;
  for (size_t length : lengths) {
    gti.Insert(BuildGtiEntry(
        BuildGroupsForLength(dataset, length, options.st, &rng), options.st,
        options.window_ratio, options.compute_sp_space));
  }
  return OnexBase::FromParts(dataset, options, std::move(gti));
}

}  // namespace onex

#endif  // ONEX_TESTS_SERIAL_BUILD_H_
