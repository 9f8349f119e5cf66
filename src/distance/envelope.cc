#include "distance/envelope.h"

#include <algorithm>
#include <vector>

namespace onex {
namespace {

/// out[i] = pick over series[max(i - w, 0) .. min(i + w, n - 1)], where
/// `pick` returns one of its two arguments (std::max or std::min).
///
/// van Herk/Gil-Werman: cut the series into blocks of k = 2w + 1 and
/// keep, per point, the extreme from its block's start (prefix, built in
/// `out`) and to its block's end (suffix, in `suffix`). An unclipped
/// window is k long, so it is one whole block or the tail of one block
/// plus the head of the next: pick(suffix[i - w], prefix[i + w]). The
/// clipped windows at either end are read from one side only, since a
/// prefix or suffix there would reach past the series' end of the
/// window. Three comparisons per point whatever w is, no division.
///
/// `out` may be read and written in place: output i reads prefix
/// entries at i and beyond only, and the loops run in increasing i.
template <class Pick>
void SlidingExtreme(const double* series, size_t n, size_t w, double* out,
                    double* suffix, Pick pick) {
  const size_t k = 2 * w + 1;
  size_t last_block = 0;  // Start of the last (possibly short) block.
  for (size_t start = 0; start < n; start += k) {
    const size_t end = std::min(start + k, n);
    last_block = start;
    out[start] = series[start];
    for (size_t j = start + 1; j < end; ++j) {
      out[j] = pick(out[j - 1], series[j]);
    }
    suffix[end - 1] = series[end - 1];
    for (size_t j = end - 1; j > start; --j) {
      suffix[j - 1] = pick(series[j - 1], suffix[j]);
    }
  }
  // Head, i <= w: the window is [0, min(i + w, n - 1)], which lies in
  // block 0 (i + w < k), so its block prefix is the whole window.
  const size_t head_end = std::min(w + 1, n);
  for (size_t i = 0; i < head_end; ++i) {
    out[i] = out[std::min(i + w, n - 1)];
  }
  // Middle, w < i < n - 1 - w: a full window of k points.
  const size_t tail_begin = std::max(head_end, n > w ? n - 1 - w : 0);
  for (size_t i = head_end; i < tail_begin; ++i) {
    out[i] = pick(suffix[i - w], out[i + w]);
  }
  // Tail, i + w >= n - 1 (and i > w): the window is [i - w, n - 1]. It
  // is a suffix of the last block, or the rest of the block before plus
  // the whole last block.
  const double last_whole = out[n - 1];
  for (size_t i = tail_begin; i < n; ++i) {
    const size_t a = i - w;
    out[i] = a >= last_block ? suffix[a] : pick(suffix[a], last_whole);
  }
}

}  // namespace

SeriesExtrema ExtremaOf(std::span<const double> a) {
  if (a.empty()) return {};
  const auto [min_it, max_it] = std::minmax_element(a.begin(), a.end());
  return {*min_it, *max_it};
}

Envelope ComputeEnvelope(std::span<const double> series, size_t window) {
  const size_t n = series.size();
  Envelope env;
  env.lower.resize(n);
  env.upper.resize(n);
  env.extrema = ExtremaOf(series);
  if (n == 0) return env;
  window = std::min(window, n);

  std::vector<double> suffix(n);
  const auto max = [](double a, double b) { return std::max(a, b); };
  const auto min = [](double a, double b) { return std::min(a, b); };
  SlidingExtreme(series.data(), n, window, env.upper.data(), suffix.data(),
                 max);
  SlidingExtreme(series.data(), n, window, env.lower.data(), suffix.data(),
                 min);
  return env;
}

}  // namespace onex
