// Copyright 2026 The ONEX Reproduction Authors.
// Euclidean distance kernels (paper Defs. 2 and 5). The normalized form
// ED/sqrt(n) is the distance ONEX clusters with: Algorithm 1 compares raw
// ED against sqrt(L)*ST/2, which is exactly NormalizedEd <= ST/2. The
// offline build scores representatives through SquaredEuclideanBatch,
// one per vector lane, with the scalar kernels' bits.

#ifndef ONEX_DISTANCE_EUCLIDEAN_H_
#define ONEX_DISTANCE_EUCLIDEAN_H_

#include <cstddef>
#include <limits>
#include <span>

#include "distance/lanes.h"

namespace onex {

/// Squared Euclidean distance. Requires a.size() == b.size(). The sum
/// runs in index order over the same unfused (a[i] - b[i])^2 that DTW's
/// recurrence adds, and the diagonal is a warping path, so on equal
/// lengths the result is, bit for bit, >= SquaredDtw(a, b) under any
/// band (rounding is monotone): a DTW upper bound with no slack.
double SquaredEuclidean(std::span<const double> a, std::span<const double> b);

/// Euclidean distance ED(X, Y) (Def. 2). Requires equal lengths.
double EuclideanDistance(std::span<const double> a, std::span<const double> b);

/// Normalized Euclidean distance ED(X, Y)/sqrt(n) (Def. 5).
double NormalizedEuclidean(std::span<const double> a,
                           std::span<const double> b);

/// Early-abandoning squared ED: returns +infinity as soon as the partial
/// sum exceeds `threshold_sq` (a squared distance). Exact otherwise.
double SquaredEuclideanEarlyAbandon(std::span<const double> a,
                                    std::span<const double> b,
                                    double threshold_sq);

/// Early-abandoning ED: +infinity if ED would exceed `threshold`.
double EuclideanEarlyAbandon(std::span<const double> a,
                             std::span<const double> b, double threshold);

/// Series one SquaredEuclideanBatch block holds, one per lane.
inline constexpr size_t kEdBatchLanes = 16;

/// Early-abandoning squared ED of `query` against `count` series of its
/// length, stored lane-major in blocks of kEdBatchLanes series: point i
/// of series c is at blocks[(c - c % kEdBatchLanes) * query.size() +
/// i * kEdBatchLanes + c % kEdBatchLanes]. out[c] (out must hold
/// `count` values) is, bit for bit, SquaredEuclideanEarlyAbandon(query,
/// series c, threshold_sq): each lane sums the same unfused
/// (query[i] - x[i])^2 in index order. A block stops early only once
/// every lane of it has a partial sum above threshold_sq (checked every
/// 8 points, as the scalar kernel checks), where every lane's answer is
/// +inf. `blocks` holds whole blocks; the lanes past `count` in the last
/// one are read and ignored, and should be finite (zeros) so that they
/// cannot hold back that stop. AVX2 when the CPU has it, portable
/// 16-byte lanes otherwise.
void SquaredEuclideanBatch(std::span<const double> query,
                           std::span<const double> blocks, size_t count,
                           double threshold_sq, std::span<double> out);

/// Doubles that SquaredEuclideanBatch blocks holding `count` series of
/// `length` points take: whole blocks.
inline size_t EdBlockDoubles(size_t count, size_t length) {
  return (count + kEdBatchLanes - 1) / kEdBatchLanes * kEdBatchLanes * length;
}

/// Writes `values` into `blocks` as series `c` (its lane of its block).
inline void StoreEdLane(std::span<double> blocks, size_t c,
                        std::span<const double> values) {
  const size_t lane = c % kEdBatchLanes;
  double* column = blocks.data() + (c - lane) * values.size() + lane;
  for (size_t i = 0; i < values.size(); ++i) {
    column[i * kEdBatchLanes] = values[i];
  }
}

/// Reads series `c` of `blocks` into `values` (StoreEdLane's inverse).
inline void LoadEdLane(std::span<const double> blocks, size_t c,
                       std::span<double> values) {
  const size_t lane = c % kEdBatchLanes;
  const double* column = blocks.data() + (c - lane) * values.size() + lane;
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = column[i * kEdBatchLanes];
  }
}

/// SquaredEuclideanBatch through `kernel` when supported, through
/// kPortable otherwise.
void SquaredEuclideanBatchWith(LaneKernel kernel,
                               std::span<const double> query,
                               std::span<const double> blocks, size_t count,
                               double threshold_sq, std::span<double> out);

}  // namespace onex

#endif  // ONEX_DISTANCE_EUCLIDEAN_H_
