// Copyright 2026 The ONEX Reproduction Authors.
// Configuration for ONEX base construction and query processing.

#ifndef ONEX_CORE_OPTIONS_H_
#define ONEX_CORE_OPTIONS_H_

#include <cmath>
#include <cstdint>

#include "dataset/length_spec.h"
#include "util/status.h"

namespace onex {

/// All knobs of the ONEX pipeline. Defaults follow the paper: ST = 0.2
/// (the "balanced" threshold of Sec. 6.3), full length decomposition,
/// and a 10% Sakoe-Chiba band for online DTW.
struct OnexOptions {
  /// Largest ST a base takes. Above it the squared join radius,
  /// L * (ST/2)^2, could overflow to +inf and every subsequence would
  /// "join" a group that does not exist yet.
  static constexpr double kMaxSt = 1e100;

  /// Similarity threshold ST in normalized-distance units (Def. 4 with
  /// the normalized distances of Defs. 5-6). Groups have ED radius ST/2.
  double st = 0.2;

  /// Candidate subsequence lengths (paper: all lengths; benches stride).
  LengthSpec lengths;

  /// Sakoe-Chiba band for online DTW as a fraction of the longer series;
  /// negative = unconstrained, and 1 or more the full width. Also sizes
  /// the LSI envelopes.
  double window_ratio = 0.1;

  /// Seed for RANDOMIZE-IN-PLACE in Algorithm 1.
  uint64_t seed = 42;

  /// Computes SThalf / STfinal per length during the build (Sec. 4.2).
  /// What it costs is a g(g-1)/2 buffer of Dc values, held while the
  /// length is built (a build holds one per length in flight: up to the
  /// work pool's workers + 2), and the O(g^2) Prim pass over it;
  /// disable for very large bases. The O(g^2 * L) pass over the representative
  /// pairs runs either way: the sum order needs its row sums.
  bool compute_sp_space = true;

  /// Validates parameter sanity.
  Status Validate() const {
    // Written so that NaN fails each test.
    if (!(st > 0.0 && st <= kMaxSt)) {
      return Status::InvalidArgument("st must be positive and at most 1e100");
    }
    if (!std::isfinite(window_ratio)) {
      return Status::InvalidArgument("window_ratio must be finite");
    }
    if (lengths.min_length < 2) {
      return Status::InvalidArgument("min_length must be >= 2");
    }
    if (lengths.max_length != 0 &&
        lengths.max_length < lengths.min_length) {
      return Status::InvalidArgument("max_length < min_length");
    }
    return Status::OK();
  }
};

}  // namespace onex

#endif  // ONEX_CORE_OPTIONS_H_
