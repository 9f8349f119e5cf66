#include "distance/euclidean.h"

#include <cassert>
#include <cmath>

namespace onex {

double SquaredEuclidean(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    // Two statements, as in DTW's cell step, so that no contraction
    // within one expression (clang's default) fuses them into an FMA.
    const double d = a[i] - b[i];
    const double cost = d * d;
    sum += cost;
  }
  return sum;
}

double EuclideanDistance(std::span<const double> a,
                         std::span<const double> b) {
  return std::sqrt(SquaredEuclidean(a, b));
}

double NormalizedEuclidean(std::span<const double> a,
                           std::span<const double> b) {
  assert(!a.empty());
  return EuclideanDistance(a, b) / std::sqrt(static_cast<double>(a.size()));
}

double SquaredEuclideanEarlyAbandon(std::span<const double> a,
                                    std::span<const double> b,
                                    double threshold_sq) {
  assert(a.size() == b.size());
  double sum = 0.0;
  // Check the abandon condition every 8 points: the branch is cheap but
  // not free, and partial sums only grow.
  constexpr size_t kCheckStride = 8;
  size_t i = 0;
  while (i < a.size()) {
    const size_t stop = std::min(a.size(), i + kCheckStride);
    for (; i < stop; ++i) {
      const double d = a[i] - b[i];
      sum += d * d;
    }
    if (sum > threshold_sq) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return sum;
}

double EuclideanEarlyAbandon(std::span<const double> a,
                             std::span<const double> b, double threshold) {
  const double sq = SquaredEuclideanEarlyAbandon(a, b, threshold * threshold);
  return std::isinf(sq) ? sq : std::sqrt(sq);
}

}  // namespace onex
