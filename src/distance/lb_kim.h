// Copyright 2026 The ONEX Reproduction Authors.
// LB_Kim-style cheap lower bound on DTW. Stage 1 of the
// cascading-lower-bound pruning the paper adopts from the UCR suite
// (Sec. 5.3, [11], [22]).

#ifndef ONEX_DISTANCE_LB_KIM_H_
#define ONEX_DISTANCE_LB_KIM_H_

#include <span>

#include "distance/envelope.h"

namespace onex {

/// Classic 4-feature LB_Kim: any warping path matches first with first
/// and last with last, and the global min/max of one series must align
/// with *some* point of the other. Valid for unequal lengths and any
/// window. O(n) (dominated by the min/max scans).
double LbKim(std::span<const double> a, std::span<const double> b);

/// LbKim(a, b) with both series' extrema supplied by the caller
/// (`a_extrema` must be ExtremaOf(a), `b_extrema` ExtremaOf(b)): a query
/// pays its own min/max scan once, and a stored representative's come
/// with its envelope, so each call is O(1). Bit-identical to the
/// two-argument form.
double LbKim(std::span<const double> a, const SeriesExtrema& a_extrema,
             std::span<const double> b, const SeriesExtrema& b_extrema);

}  // namespace onex

#endif  // ONEX_DISTANCE_LB_KIM_H_
