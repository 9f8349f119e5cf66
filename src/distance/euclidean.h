// Copyright 2026 The ONEX Reproduction Authors.
// Euclidean distance kernels (paper Defs. 2 and 5). The normalized form
// ED/sqrt(n) is the distance ONEX clusters with: Algorithm 1 compares raw
// ED against sqrt(L)*ST/2, which is exactly NormalizedEd <= ST/2.

#ifndef ONEX_DISTANCE_EUCLIDEAN_H_
#define ONEX_DISTANCE_EUCLIDEAN_H_

#include <limits>
#include <span>

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

}  // namespace onex

#endif  // ONEX_DISTANCE_EUCLIDEAN_H_
