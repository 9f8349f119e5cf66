// Copyright 2026 The ONEX Reproduction Authors.
// Dynamic Time Warping (paper Defs. 3 and 6). The paper's formulation
// accumulates squared point costs along the warping path and reports the
// square root of the minimum total, so DTW(X, X) = 0 and DTW reduces to
// ED on the diagonal path. Supports unequal lengths, an optional
// Sakoe-Chiba band, early abandoning against a best-so-far, and a
// path-reporting variant used by tests.

#ifndef ONEX_DISTANCE_DTW_H_
#define ONEX_DISTANCE_DTW_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "distance/lanes.h"

namespace onex {

/// Band constraint for DTW. A negative window means unconstrained; a
/// non-negative window w restricts |i - j| <= max(w, |n - m|), the classic
/// generalization that keeps the corner-to-corner path feasible for
/// unequal lengths.
struct DtwOptions {
  int window = -1;

  /// Builds options from a window expressed as a fraction of the longer
  /// series (UCR-suite convention), e.g. ratio = 0.1 on length 200 -> 20.
  static DtwOptions FromRatio(double ratio, size_t n, size_t m);
};

/// DTW distance per Def. 3: sqrt of the minimal sum of squared point
/// costs over all warping paths. O(n*m) time, O(min(n,m)) space.
double DtwDistance(std::span<const double> a, std::span<const double> b,
                   const DtwOptions& options = {});

/// Squared DTW (no final sqrt); the natural unit for internal pruning.
double SquaredDtw(std::span<const double> a, std::span<const double> b,
                  const DtwOptions& options = {});

/// Normalized DTW per Def. 6: DTW(X, Y) / (2 * max(n, m)).
double NormalizedDtw(std::span<const double> a, std::span<const double> b,
                     const DtwOptions& options = {});

/// Early-abandoning DTW: returns +infinity as soon as every cell of a DP
/// row exceeds `threshold` (an unsquared distance); otherwise the exact
/// DTW distance. Equivalent to DtwDistance when the result <= threshold.
double DtwEarlyAbandon(std::span<const double> a, std::span<const double> b,
                       double threshold, const DtwOptions& options = {});

/// Candidates the batch kernels score together (16 AVX2 lanes, or two
/// passes of 8 portable ones); callers that check for interruption
/// between batches chunk by this.
inline constexpr size_t kDtwBatchLanes = 16;

/// Early-abandoning DTW of one query against many candidates, all of
/// one length: out[c] (out must hold candidates.size() values) is,
/// bit for bit, DtwEarlyAbandon(query, candidates[c], threshold,
/// options) — with threshold = +inf, DtwDistance. Candidates are scored
/// one per vector lane, kDtwBatchLanes at a time, which hides the
/// latency of the DTW recurrence; the kernel is AVX2 when the CPU has
/// it (checked once, at run time), portable 16-byte lanes otherwise.
void DtwEarlyAbandonBatch(std::span<const double> query,
                          std::span<const std::span<const double>> candidates,
                          double threshold, std::span<double> out,
                          const DtwOptions& options = {});

/// DtwEarlyAbandonBatch through `kernel` when supported, through
/// kPortable otherwise (DtwEarlyAbandonBatch runs DefaultLaneKernel()).
void DtwEarlyAbandonBatchWith(
    LaneKernel kernel, std::span<const double> query,
    std::span<const std::span<const double>> candidates, double threshold,
    std::span<double> out, const DtwOptions& options = {});

/// Early-abandoning DTW that additionally prunes cells using a cumulative
/// lower bound `cb` (UCR-suite style): cb[i] must lower-bound the squared
/// cost contribution of aligning points i..n-1 of `a`. Pass an empty span
/// to disable. Used by the Trillion baseline.
double DtwEarlyAbandonCb(std::span<const double> a, std::span<const double> b,
                         std::span<const double> cb, double threshold,
                         const DtwOptions& options = {});

/// Full DTW that also reports one optimal warping path as (i, j) pairs
/// from (0,0) to (n-1, m-1). O(n*m) memory; for tests and examples only.
double DtwWithPath(std::span<const double> a, std::span<const double> b,
                   std::vector<std::pair<uint32_t, uint32_t>>* path,
                   const DtwOptions& options = {});

}  // namespace onex

#endif  // ONEX_DISTANCE_DTW_H_
