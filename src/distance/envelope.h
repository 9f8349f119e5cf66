// Copyright 2026 The ONEX Reproduction Authors.
// Warping envelopes for LB_Keogh (paper Sec. 4.3: the LSI stores one
// envelope per group representative). Computed with van Herk/Gil-Werman
// block prefix and suffix extremes in O(n) regardless of window size
// (three comparisons per point for each of the two bounds). An envelope
// also carries its series' global extrema, LB_Kim's features, so a
// stored representative's LB_Kim costs O(1).

#ifndef ONEX_DISTANCE_ENVELOPE_H_
#define ONEX_DISTANCE_ENVELOPE_H_

#include <span>
#include <vector>

namespace onex {

/// Global minimum and maximum of a series, LB_Kim's extremum features.
struct SeriesExtrema {
  double min = 0.0;
  double max = 0.0;
};

/// The extrema of `a` (both 0 when `a` is empty).
SeriesExtrema ExtremaOf(std::span<const double> a);

/// Pointwise band around a series: lower[i] = min of the series in
/// [i - window, i + window], upper[i] = max over the same range.
struct Envelope {
  std::vector<double> lower;
  std::vector<double> upper;
  /// ExtremaOf(series), whatever the window.
  SeriesExtrema extrema;

  size_t size() const { return lower.size(); }
  bool empty() const { return lower.empty(); }

  /// Heap bytes held by the envelope (index sizing, paper Table 4).
  size_t MemoryBytes() const {
    return (lower.capacity() + upper.capacity()) * sizeof(double);
  }
};

/// Builds the envelope of `series` for band half-width `window` (clamped
/// to the series length). window = 0 degenerates to the series itself.
/// Also fills the series' extrema.
Envelope ComputeEnvelope(std::span<const double> series, size_t window);

}  // namespace onex

#endif  // ONEX_DISTANCE_ENVELOPE_H_
