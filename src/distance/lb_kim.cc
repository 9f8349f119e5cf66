#include "distance/lb_kim.h"

#include <algorithm>
#include <cmath>

namespace onex {

double LbKim(std::span<const double> a, std::span<const double> b) {
  return LbKim(a, ExtremaOf(a), b, ExtremaOf(b));
}

double LbKim(std::span<const double> a, const SeriesExtrema& a_extrema,
             std::span<const double> b, const SeriesExtrema& b_extrema) {
  if (a.empty() || b.empty()) return 0.0;
  // First and last points are on every warping path, and they are
  // distinct path elements when max(n, m) >= 2, so their squared costs
  // both contribute to the path weight (Def. 3).
  const double d_first = a.front() - b.front();
  const double d_last = a.back() - b.back();
  double bound_sq = d_first * d_first;
  if (a.size() >= 2 || b.size() >= 2) bound_sq += d_last * d_last;

  // Min/max features: the global extremum of one series aligns with some
  // point of the other, bounding one path cost from below.
  const double d_min = a_extrema.min - b_extrema.min;
  const double d_max = a_extrema.max - b_extrema.max;
  const double feature_sq =
      std::max(d_min * d_min, d_max * d_max);
  return std::sqrt(std::max(bound_sq, feature_sq));
}

}  // namespace onex
