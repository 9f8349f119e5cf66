#include "distance/euclidean.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace onex {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Both early-abandoning kernels test the threshold every 8 points: the
// branch is cheap but not free, and partial sums only grow.
constexpr size_t kCheckStride = 8;

// One block: `count` (at most kEdBatchLanes) series, point i of lane l
// at block[i * kEdBatchLanes + l], in K vectors of W lanes. Lanes past
// `count` get a limit of -inf, so any finite sum they hold counts as
// past it.
template <class P>
[[gnu::always_inline]] inline void SquaredEuclideanBlock(
    std::span<const double> query, const double* block, size_t count,
    double threshold_sq, double* out) {
  using V = typename P::V;
  constexpr size_t W = lanes::kWidth<P>;
  constexpr size_t K = kEdBatchLanes / W;
  const size_t n = query.size();
  double limits[kEdBatchLanes];
  for (size_t l = 0; l < kEdBatchLanes; ++l) {
    limits[l] = l < count ? threshold_sq : -kInf;
  }
  V limit[K];
  V sum[K];
#pragma GCC unroll 8
  for (size_t k = 0; k < K; ++k) {
    limit[k] = lanes::Load<P>(limits + k * W);
    sum[k] = lanes::Broadcast<P>(0.0);
  }
  size_t i = 0;
  while (i < n) {
    const size_t stop = std::min(n, i + kCheckStride);
    for (; i < stop; ++i) {
      const V q = lanes::Broadcast<P>(query[i]);
      const double* row = block + i * kEdBatchLanes;
#pragma GCC unroll 8
      for (size_t k = 0; k < K; ++k) {
        // Two statements, as in the scalar kernels: never an FMA.
        const V d = q - lanes::Load<P>(row + k * W);
        const V cost = d * d;
        sum[k] += cost;
      }
    }
    if (threshold_sq < kInf) {
      auto over = sum[0] > limit[0];
#pragma GCC unroll 8
      for (size_t k = 1; k < K; ++k) over &= sum[k] > limit[k];
      bool all = true;
      for (size_t l = 0; l < W; ++l) all = all && over[l] != 0;
      if (all) {
        std::fill_n(out, count, kInf);
        return;
      }
    }
  }
  double sums[kEdBatchLanes];
#pragma GCC unroll 8
  for (size_t k = 0; k < K; ++k) lanes::Store<P>(sums + k * W, sum[k]);
  // The scalar kernel abandons exactly when its final sum is past the
  // threshold: partial sums only grow.
  for (size_t l = 0; l < count; ++l) {
    out[l] = sums[l] > threshold_sq ? kInf : sums[l];
  }
}

template <class P>
[[gnu::always_inline]] inline void SquaredEuclideanBlocks(
    std::span<const double> query, const double* blocks, size_t count,
    double threshold_sq, double* out) {
  for (size_t first = 0; first < count; first += kEdBatchLanes) {
    SquaredEuclideanBlock<P>(query, blocks + first * query.size(),
                             std::min(kEdBatchLanes, count - first),
                             threshold_sq, out + first);
  }
}

void SquaredEuclideanPortable(std::span<const double> query,
                              const double* blocks, size_t count,
                              double threshold_sq, double* out) {
  SquaredEuclideanBlocks<lanes::Pack2>(query, blocks, count, threshold_sq,
                                       out);
}

#if defined(__x86_64__) || defined(__i386__)
// AVX2 only, deliberately not FMA, as for the DTW batch kernel.
[[gnu::target("avx2")]] void SquaredEuclideanAvx2(
    std::span<const double> query, const double* blocks, size_t count,
    double threshold_sq, double* out) {
  SquaredEuclideanBlocks<lanes::Pack4>(query, blocks, count, threshold_sq,
                                       out);
}
#endif

}  // namespace

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
  size_t i = 0;
  while (i < a.size()) {
    const size_t stop = std::min(a.size(), i + kCheckStride);
    for (; i < stop; ++i) {
      // Unfused, as in SquaredEuclidean and in every batch lane.
      const double d = a[i] - b[i];
      const double cost = d * d;
      sum += cost;
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

void SquaredEuclideanBatch(std::span<const double> query,
                           std::span<const double> blocks, size_t count,
                           double threshold_sq, std::span<double> out) {
  SquaredEuclideanBatchWith(DefaultLaneKernel(), query, blocks, count,
                            threshold_sq, out);
}

void SquaredEuclideanBatchWith(LaneKernel kernel,
                               std::span<const double> query,
                               std::span<const double> blocks, size_t count,
                               double threshold_sq, std::span<double> out) {
  assert(out.size() >= count);
  assert(blocks.size() >= (count + kEdBatchLanes - 1) / kEdBatchLanes *
                              kEdBatchLanes * query.size());
  if (query.empty()) {
    // No point to check: the scalar kernel returns its empty sum.
    std::fill_n(out.begin(), count, 0.0);
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  if (kernel == LaneKernel::kAvx2 && CpuHasAvx2()) {
    SquaredEuclideanAvx2(query, blocks.data(), count, threshold_sq,
                         out.data());
    return;
  }
#endif
  (void)kernel;
  SquaredEuclideanPortable(query, blocks.data(), count, threshold_sq,
                           out.data());
}

}  // namespace onex
