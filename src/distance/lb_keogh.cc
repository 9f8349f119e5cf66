#include "distance/lb_keogh.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace onex {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

inline double PointContribution(double q, double lower, double upper) {
  if (q > upper) {
    const double d = q - upper;
    return d * d;
  }
  if (q < lower) {
    const double d = lower - q;
    return d * d;
  }
  return 0.0;
}

}  // namespace

double LbKeogh(std::span<const double> query, const Envelope& envelope) {
  assert(query.size() == envelope.size());
  double sum = 0.0;
  for (size_t i = 0; i < query.size(); ++i) {
    sum += PointContribution(query[i], envelope.lower[i], envelope.upper[i]);
  }
  return std::sqrt(sum);
}

double LbKeoghEarlyAbandon(std::span<const double> query,
                           const Envelope& envelope, double threshold) {
  assert(query.size() == envelope.size());
  const double threshold_sq = threshold * threshold;
  double sum = 0.0;
  constexpr size_t kCheckStride = 16;
  size_t i = 0;
  while (i < query.size()) {
    const size_t stop = std::min(query.size(), i + kCheckStride);
    for (; i < stop; ++i) {
      sum += PointContribution(query[i], envelope.lower[i], envelope.upper[i]);
    }
    if (sum > threshold_sq) return kInf;
  }
  return std::sqrt(sum);
}

double LbKeoghWithContributions(std::span<const double> query,
                                const Envelope& envelope,
                                std::vector<double>* contributions) {
  assert(query.size() == envelope.size());
  contributions->resize(query.size());
  double sum = 0.0;
  for (size_t i = 0; i < query.size(); ++i) {
    const double c =
        PointContribution(query[i], envelope.lower[i], envelope.upper[i]);
    (*contributions)[i] = c;
    sum += c;
  }
  return std::sqrt(sum);
}

std::vector<double> CumulativeBound(std::span<const double> contributions) {
  std::vector<double> cb(contributions.size() + 1, 0.0);
  for (size_t i = contributions.size(); i-- > 0;) {
    cb[i] = cb[i + 1] + contributions[i];
  }
  return cb;
}

}  // namespace onex
