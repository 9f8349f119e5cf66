// Copyright 2026 The ONEX Reproduction Authors.
// LB_Keogh lower bound on DTW (paper Sec. 4.3/5.3, [18], [22]): the
// distance from a query to the warping envelope of a candidate lower
// bounds the banded DTW between them. Stages 2-3 of the pruning cascade;
// also produces the per-point contributions that power the cumulative
// bound (cb) pruning inside early-abandoning DTW.

#ifndef ONEX_DISTANCE_LB_KEOGH_H_
#define ONEX_DISTANCE_LB_KEOGH_H_

#include <span>
#include <vector>

#include "distance/envelope.h"

namespace onex {

/// LB_Keogh(query, envelope(candidate)): sqrt of the summed squared
/// excursions of `query` outside the envelope. Requires query.size() ==
/// envelope.size(). Admissible for DTW with the window the envelope was
/// built with (and any larger window between equal-length series).
double LbKeogh(std::span<const double> query, const Envelope& envelope);

/// Early-abandoning variant: returns +infinity once the partial sum
/// exceeds threshold (unsquared).
double LbKeoghEarlyAbandon(std::span<const double> query,
                           const Envelope& envelope, double threshold);

/// Variant that also writes the squared per-point contribution into
/// `contributions[i]` (resized to query length). Feed these, reversed and
/// cumulatively summed, into DtwEarlyAbandonCb.
double LbKeoghWithContributions(std::span<const double> query,
                                const Envelope& envelope,
                                std::vector<double>* contributions);

/// Builds the reversed cumulative bound cb from per-point contributions:
/// cb[i] = sum of contributions[i..n-1]; cb has length n + 1 with
/// cb[n] = 0.
std::vector<double> CumulativeBound(std::span<const double> contributions);

}  // namespace onex

#endif  // ONEX_DISTANCE_LB_KEOGH_H_
