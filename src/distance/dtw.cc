#include "distance/dtw.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "distance/lanes.h"

namespace onex {
namespace {

using lanes::Aligned;
using lanes::Broadcast;
using lanes::kWidth;
using lanes::Load;
using lanes::Pack2;
using lanes::Pack4;
using lanes::Store;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Effective band half-width: at least |n - m| so the corner-to-corner
// path stays feasible; SIZE_MAX means unconstrained.
size_t EffectiveWindow(const DtwOptions& options, size_t n, size_t m) {
  if (options.window < 0) return std::numeric_limits<size_t>::max();
  const size_t diff = n > m ? n - m : m - n;
  return std::max(static_cast<size_t>(options.window), diff);
}

// `x < y ? x : y`, the exact semantics of std::min(y, x) and of the
// x86 MINPD instruction (y wins ties and NaNs). T is double or a
// lane vector; on vectors the compare and select run per lane.
template <class T>
[[gnu::always_inline]] inline T LessSelect(const T& x, const T& y) {
  return x < y ? x : y;
}

// One cell of the recurrence: D(i, j) = cost(i, j) + min(D(i-1, j-1),
// D(i-1, j), D(i, j-1)). An unreachable (+inf) predecessor set leaves
// the cell unreachable with no select of its own: for finite inputs the
// cost is finite or +inf, and either plus +inf is +inf. The scalar
// kernel and every lane of the batch kernels run exactly this sequence
// of compares, selects, one subtraction, one multiplication and one
// addition (never fused), so a lane's result is bit-identical to the
// scalar one whatever the lane order.
template <class T>
[[gnu::always_inline]] inline T DtwCell(const T& ai, const T& bj,
                                        const T& diag, const T& up,
                                        const T& left) {
  const T d = ai - bj;
  const T cost = d * d;
  return cost + LessSelect(left, LessSelect(up, diag));
}

// Shared DP core. Returns the squared DTW, or +inf when early abandoning
// is enabled (threshold_sq < inf) and every reachable cell of some row
// (plus its cumulative bound) exceeds threshold_sq. `cb` may be empty.
double SquaredDtwCore(std::span<const double> a, std::span<const double> b,
                      std::span<const double> cb, double threshold_sq,
                      const DtwOptions& options) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return n == m ? 0.0 : kInf;
  const size_t w = EffectiveWindow(options, n, m);

  // Two rolling rows, 1-based over j with sentinel column 0.
  thread_local std::vector<double> prev_storage, cur_storage;
  prev_storage.assign(m + 1, kInf);
  cur_storage.assign(m + 1, kInf);
  double* prev = prev_storage.data();
  double* cur = cur_storage.data();
  prev[0] = 0.0;  // D(-1, -1) = 0 lives at prev[0].

  for (size_t i = 0; i < n; ++i) {
    const size_t j_lo = i > w ? i - w : 0;
    // Saturating i + w: w may be SIZE_MAX (unconstrained).
    const size_t j_hi = (w >= m || i + w >= m) ? m - 1 : i + w;
    cur[0] = kInf;
    // Cells just left and right of the band must read as +inf; the band
    // shifts by at most one column per row, so one sentinel each side
    // clears all staleness left by row reuse.
    if (j_lo > 0) cur[j_lo] = kInf;
    if (j_hi + 2 <= m) cur[j_hi + 2] = kInf;
    double row_min = kInf;
    const double ai = a[i];
    for (size_t j = j_lo; j <= j_hi; ++j) {
      const double value = DtwCell(ai, b[j], prev[j], prev[j + 1], cur[j]);
      cur[j + 1] = value;
      row_min = LessSelect(value, row_min);
    }
    if (threshold_sq < kInf) {
      // UCR-suite cumulative-bound pruning: everything still to come
      // costs at least cb[i + 1].
      const double future = (!cb.empty() && i + 1 < cb.size()) ? cb[i + 1]
                                                               : 0.0;
      if (row_min + future > threshold_sq) return kInf;
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

// ------------------------------------------------------------- batches
//
// The scalar core is latency-bound: every cell waits for its left
// neighbour's min + add. The batch kernels run the same recurrence for
// L = K * W candidates of one length at once, one candidate per lane of
// K vectors of W doubles, so K independent chains overlap. Candidates
// are transposed lane-major (bt[j * L + l] = column j of candidate l)
// and the DP rows use the same layout.

// Squared DTW of `a` against the K * kWidth<P> candidates `b` (lane l
// scores b[l], each of length m) under half-width `w`. Row i does, per
// lane, exactly what row i of SquaredDtwCore does: a lane whose row
// minimum exceeds threshold_sq is abandoned (+inf), and the scan stops
// once every lane is.
template <class P, size_t K>
[[gnu::always_inline]] inline void SquaredDtwLanes(
    std::span<const double> a, const double* const* b, size_t m, size_t w,
    double threshold_sq, double* out) {
  constexpr size_t W = kWidth<P>;
  constexpr size_t L = K * W;
  const size_t n = a.size();
  using V = typename P::V;
  const V inf = Broadcast<P>(kInf);

  thread_local std::vector<double> bt_storage, prev_storage, cur_storage;
  double* bt = Aligned(bt_storage, m * L);
  for (size_t j = 0; j < m; ++j) {
    for (size_t l = 0; l < L; ++l) bt[j * L + l] = b[l][j];
  }
  double* prev = Aligned(prev_storage, (m + 1) * L);
  double* cur = Aligned(cur_storage, (m + 1) * L);
  std::fill_n(prev, (m + 1) * L, kInf);
  std::fill_n(cur, (m + 1) * L, kInf);
  std::fill_n(prev, L, 0.0);  // D(-1, -1) = 0 in every lane.

  bool abandoned[L] = {};
  size_t live = L;
  for (size_t i = 0; i < n; ++i) {
    const size_t j_lo = i > w ? i - w : 0;
    const size_t j_hi = (w >= m || i + w >= m) ? m - 1 : i + w;
    // Unlike the scalar core, no band sentinels: the left neighbours
    // start at +inf in registers, and the cells a row reads above it
    // were written by the previous row or never (still +inf).
    std::fill_n(cur, L, kInf);
    const V ai = Broadcast<P>(a[i]);
    V left[K];
    V row_min[K];
#pragma GCC unroll 4
    for (size_t k = 0; k < K; ++k) left[k] = row_min[k] = inf;
    for (size_t j = j_lo; j <= j_hi; ++j) {
      const double* b_col = bt + j * L;
      const double* diag = prev + j * L;
      const double* up = diag + L;
      double* value = cur + (j + 1) * L;
#pragma GCC unroll 4
      for (size_t k = 0; k < K; ++k) {
        left[k] = DtwCell(ai, Load<P>(b_col + k * W), Load<P>(diag + k * W),
                          Load<P>(up + k * W), left[k]);
        Store<P>(value + k * W, left[k]);
        row_min[k] = LessSelect(left[k], row_min[k]);
      }
    }
    if (threshold_sq < kInf) {
      double mins[L];
#pragma GCC unroll 4
      for (size_t k = 0; k < K; ++k) Store<P>(mins + k * W, row_min[k]);
      for (size_t l = 0; l < L; ++l) {
        if (!abandoned[l] && mins[l] > threshold_sq) {
          abandoned[l] = true;
          --live;
        }
      }
      if (live == 0) break;
    }
    std::swap(prev, cur);
  }
  for (size_t l = 0; l < L; ++l) {
    out[l] = abandoned[l] ? kInf : prev[m * L + l];
  }
}

// Scores up to 4 * kWidth<P> candidates with as few vectors as cover
// them; spare lanes repeat candidate 0 (so they abandon with it). A lone
// candidate has no second chain to overlap with, and the scalar core
// scores it faster.
template <class P>
[[gnu::always_inline]] inline void SquaredDtwChunk(
    std::span<const double> a, std::span<const std::span<const double>> b,
    const DtwOptions& options, double threshold_sq, double* out) {
  if (b.size() == 1) {
    out[0] = SquaredDtwCore(a, b[0], {}, threshold_sq, options);
    return;
  }
  constexpr size_t W = kWidth<P>;
  const size_t m = b[0].size();
  const size_t w = EffectiveWindow(options, a.size(), m);
  const double* lanes[4 * W];
  for (size_t l = 0; l < 4 * W; ++l) {
    lanes[l] = b[l < b.size() ? l : 0].data();
  }
  double sq[4 * W];
  switch ((b.size() + W - 1) / W) {
    case 1:
      SquaredDtwLanes<P, 1>(a, lanes, m, w, threshold_sq, sq);
      break;
    case 2:
      SquaredDtwLanes<P, 2>(a, lanes, m, w, threshold_sq, sq);
      break;
    case 3:
      SquaredDtwLanes<P, 3>(a, lanes, m, w, threshold_sq, sq);
      break;
    default:
      SquaredDtwLanes<P, 4>(a, lanes, m, w, threshold_sq, sq);
      break;
  }
  std::copy_n(sq, b.size(), out);
}

template <class P>
[[gnu::always_inline]] inline void SquaredDtwBatch(
    std::span<const double> a, std::span<const std::span<const double>> b,
    const DtwOptions& options, double threshold_sq, double* out) {
  constexpr size_t kChunk = 4 * kWidth<P>;
  for (size_t first = 0; first < b.size(); first += kChunk) {
    SquaredDtwChunk<P>(a, b.subspan(first, std::min(kChunk, b.size() - first)),
                       options, threshold_sq, out + first);
  }
}

void SquaredDtwPortable(std::span<const double> a,
                        std::span<const std::span<const double>> b,
                        const DtwOptions& options, double threshold_sq,
                        double* out) {
  SquaredDtwBatch<Pack2>(a, b, options, threshold_sq, out);
}

#if defined(__x86_64__) || defined(__i386__)
// AVX2 only, deliberately not FMA: a fused multiply-add would round
// cost + best differently from the scalar kernel.
[[gnu::target("avx2")]] void SquaredDtwAvx2(
    std::span<const double> a, std::span<const std::span<const double>> b,
    const DtwOptions& options, double threshold_sq, double* out) {
  SquaredDtwBatch<Pack4>(a, b, options, threshold_sq, out);
}
#endif

}  // namespace

void DtwEarlyAbandonBatch(std::span<const double> query,
                          std::span<const std::span<const double>> candidates,
                          double threshold, std::span<double> out,
                          const DtwOptions& options) {
  DtwEarlyAbandonBatchWith(DefaultLaneKernel(), query, candidates, threshold,
                           out, options);
}

void DtwEarlyAbandonBatchWith(
    LaneKernel kernel, std::span<const double> query,
    std::span<const std::span<const double>> candidates, double threshold,
    std::span<double> out, const DtwOptions& options) {
  assert(out.size() >= candidates.size());
  if (candidates.empty()) return;
  const size_t n = query.size();
  const size_t m = candidates[0].size();
  assert(std::all_of(candidates.begin(), candidates.end(),
                     [m](std::span<const double> c) { return c.size() == m; }));
  if (threshold < 0 || n == 0 || m == 0) {
    const double d = threshold < 0 || n != m ? kInf : 0.0;
    std::fill_n(out.begin(), candidates.size(), d);
    return;
  }
  const double threshold_sq = threshold * threshold;
#if defined(__x86_64__) || defined(__i386__)
  if (kernel == LaneKernel::kAvx2 && CpuHasAvx2()) {
    SquaredDtwAvx2(query, candidates, options, threshold_sq, out.data());
  } else {
    SquaredDtwPortable(query, candidates, options, threshold_sq, out.data());
  }
#else
  (void)kernel;
  SquaredDtwPortable(query, candidates, options, threshold_sq, out.data());
#endif
  for (size_t c = 0; c < candidates.size(); ++c) {
    out[c] = std::isinf(out[c]) ? kInf : std::sqrt(out[c]);
  }
}

DtwOptions DtwOptions::FromRatio(double ratio, size_t n, size_t m) {
  DtwOptions options;
  if (ratio < 0) {
    options.window = -1;
  } else {
    // Any ratio of 1 or more spans every cell; capping it keeps a large
    // ratio from overflowing the int.
    const size_t longest = std::max(n, m);
    options.window = static_cast<int>(
        std::ceil(std::min(ratio, 1.0) * static_cast<double>(longest)));
  }
  return options;
}

double SquaredDtw(std::span<const double> a, std::span<const double> b,
                  const DtwOptions& options) {
  return SquaredDtwCore(a, b, {}, kInf, options);
}

double DtwDistance(std::span<const double> a, std::span<const double> b,
                   const DtwOptions& options) {
  return std::sqrt(SquaredDtw(a, b, options));
}

double NormalizedDtw(std::span<const double> a, std::span<const double> b,
                     const DtwOptions& options) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return DtwDistance(a, b, options) / (2.0 * static_cast<double>(longest));
}

double DtwEarlyAbandon(std::span<const double> a, std::span<const double> b,
                       double threshold, const DtwOptions& options) {
  if (threshold < 0) return kInf;
  const double sq =
      SquaredDtwCore(a, b, {}, threshold * threshold, options);
  return std::isinf(sq) ? kInf : std::sqrt(sq);
}

double DtwEarlyAbandonCb(std::span<const double> a, std::span<const double> b,
                         std::span<const double> cb, double threshold,
                         const DtwOptions& options) {
  if (threshold < 0) return kInf;
  const double sq =
      SquaredDtwCore(a, b, cb, threshold * threshold, options);
  return std::isinf(sq) ? kInf : std::sqrt(sq);
}

double DtwWithPath(std::span<const double> a, std::span<const double> b,
                   std::vector<std::pair<uint32_t, uint32_t>>* path,
                   const DtwOptions& options) {
  const size_t n = a.size();
  const size_t m = b.size();
  path->clear();
  if (n == 0 || m == 0) return n == m ? 0.0 : kInf;
  const size_t w = EffectiveWindow(options, n, m);

  // Full matrix (1-based) with backpointers; test/example use only.
  std::vector<double> dp((n + 1) * (m + 1), kInf);
  std::vector<uint8_t> back(n * m, 0);  // 0 = diag, 1 = up, 2 = left.
  auto at = [m](size_t i, size_t j) { return i * (m + 1) + j; };
  dp[at(0, 0)] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    const size_t j_lo = i > w ? i - w : 1;
    const size_t j_hi = (w >= m || i + w >= m) ? m : i + w;
    for (size_t j = j_lo; j <= j_hi; ++j) {
      const double d = a[i - 1] - b[j - 1];
      const double cost = d * d;
      const double diag = dp[at(i - 1, j - 1)];
      const double up = dp[at(i - 1, j)];
      const double left = dp[at(i, j - 1)];
      double best = diag;
      uint8_t dir = 0;
      if (up < best) {
        best = up;
        dir = 1;
      }
      if (left < best) {
        best = left;
        dir = 2;
      }
      if (best == kInf) continue;
      dp[at(i, j)] = cost + best;
      back[(i - 1) * m + (j - 1)] = dir;
    }
  }
  // Recover the path by walking backpointers from (n, m).
  size_t i = n, j = m;
  while (i >= 1 && j >= 1) {
    path->emplace_back(static_cast<uint32_t>(i - 1),
                       static_cast<uint32_t>(j - 1));
    const uint8_t dir = back[(i - 1) * m + (j - 1)];
    if (dir == 0) {
      --i;
      --j;
    } else if (dir == 1) {
      --i;
    } else {
      --j;
    }
  }
  std::reverse(path->begin(), path->end());
  return std::sqrt(dp[at(n, m)]);
}

}  // namespace onex
