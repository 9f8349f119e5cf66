// Copyright 2026 The ONEX Reproduction Authors.
// LB_Kim-style cheap lower bound on DTW. Stage 1 of the
// cascading-lower-bound pruning the paper adopts from the UCR suite
// (Sec. 5.3, [11], [22]).

#ifndef ONEX_DISTANCE_LB_KIM_H_
#define ONEX_DISTANCE_LB_KIM_H_

#include <span>

namespace onex {

/// Global minimum and maximum of a series, LB_Kim's extremum features.
struct SeriesExtrema {
  double min = 0.0;
  double max = 0.0;
};

/// The extrema of `a` (both 0 when `a` is empty).
SeriesExtrema ExtremaOf(std::span<const double> a);

/// Classic 4-feature LB_Kim: any warping path matches first with first
/// and last with last, and the global min/max of one series must align
/// with *some* point of the other. Valid for unequal lengths and any
/// window. O(n) (dominated by the min/max scan).
double LbKim(std::span<const double> a, std::span<const double> b);

/// LbKim(a, b) with a's extrema computed once by the caller
/// (`a_extrema` must be ExtremaOf(a)): a query scanned against many
/// representatives pays its own min/max scan once. Bit-identical to
/// the two-argument form.
double LbKim(std::span<const double> a, const SeriesExtrema& a_extrema,
             std::span<const double> b);

}  // namespace onex

#endif  // ONEX_DISTANCE_LB_KIM_H_
