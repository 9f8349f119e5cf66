// Copyright 2026 The ONEX Reproduction Authors.
// Configuration for ONEX base construction and query processing.

#ifndef ONEX_CORE_OPTIONS_H_
#define ONEX_CORE_OPTIONS_H_

#include <cstdint>

#include "dataset/length_spec.h"
#include "util/status.h"

namespace onex {

/// All knobs of the ONEX pipeline. Defaults follow the paper: ST = 0.2
/// (the "balanced" threshold of Sec. 6.3), full length decomposition,
/// and a 10% Sakoe-Chiba band for online DTW.
struct OnexOptions {
  /// Similarity threshold ST in normalized-distance units (Def. 4 with
  /// the normalized distances of Defs. 5-6). Groups have ED radius ST/2.
  double st = 0.2;

  /// Candidate subsequence lengths (paper: all lengths; benches stride).
  LengthSpec lengths;

  /// Sakoe-Chiba band for online DTW as a fraction of the longer series;
  /// negative = unconstrained. Also sizes the LSI envelopes.
  double window_ratio = 0.1;

  /// Seed for RANDOMIZE-IN-PLACE in Algorithm 1.
  uint64_t seed = 42;

  /// Computes SThalf / STfinal per length during the build (Sec. 4.2).
  /// Costs O(g^2) time per length and, while the length is built, a
  /// g(g-1)/2 buffer of Dc values; disable for very large bases.
  bool compute_sp_space = true;

  /// Validates parameter sanity.
  Status Validate() const {
    if (st <= 0.0) return Status::InvalidArgument("st must be positive");
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
