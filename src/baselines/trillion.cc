#include "baselines/trillion.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <vector>

#include "dataset/normalize.h"
#include "distance/dtw.h"
#include "distance/envelope.h"
#include "distance/lb_keogh.h"

namespace onex {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMinStddev = 1e-12;

// O(1) LB_Kim_FL against a window whose z-normalization is implied by
// (mu, sigma): z(x) = (x - mu) * inv_sigma. Uses first/last points plus
// their neighbours (admissible for m >= 4; callers guarantee that).
double LbKimFirstLastImplicitZ(std::span<const double> zq,
                               const double* window, size_t m, double mu,
                               double inv_sigma) {
  auto z = [mu, inv_sigma](double x) { return (x - mu) * inv_sigma; };
  const double d00 = zq[0] - z(window[0]);
  double lb = d00 * d00;
  const double dnn = zq[m - 1] - z(window[m - 1]);
  lb += dnn * dnn;
  const double c01 = (zq[0] - z(window[1])) * (zq[0] - z(window[1]));
  const double c10 = (zq[1] - z(window[0])) * (zq[1] - z(window[0]));
  const double c11 = (zq[1] - z(window[1])) * (zq[1] - z(window[1]));
  lb += std::min({c01, c10, c11});
  const double e01 = (zq[m - 1] - z(window[m - 2])) *
                     (zq[m - 1] - z(window[m - 2]));
  const double e10 = (zq[m - 2] - z(window[m - 1])) *
                     (zq[m - 2] - z(window[m - 1]));
  const double e11 = (zq[m - 2] - z(window[m - 2])) *
                     (zq[m - 2] - z(window[m - 2]));
  lb += std::min({e01, e10, e11});
  return lb;  // Squared units.
}

// LB_Keogh(query-envelope, z-normalized window) visited in `order`
// (descending |zq|), early abandoned against best_so_far_sq. Squared
// per-point contributions are recorded in index order for cb pruning.
double LbKeoghQuerySide(const Envelope& query_env, const double* window,
                        double mu, double inv_sigma,
                        std::span<const size_t> order,
                        double best_so_far_sq,
                        std::vector<double>* contributions) {
  double sum = 0.0;
  size_t steps = 0;
  for (size_t idx : order) {
    const double zx = (window[idx] - mu) * inv_sigma;
    double c = 0.0;
    if (zx > query_env.upper[idx]) {
      const double d = zx - query_env.upper[idx];
      c = d * d;
    } else if (zx < query_env.lower[idx]) {
      const double d = query_env.lower[idx] - zx;
      c = d * d;
    }
    (*contributions)[idx] = c;
    sum += c;
    if (++steps % 16 == 0 && sum > best_so_far_sq) return kInf;
  }
  return sum > best_so_far_sq ? kInf : sum;
}

// LB_Keogh(data-envelope, z-normalized query): the role-reversed bound.
// The data envelope is the slice of the per-series raw envelope,
// z-normalized on the fly (affine, order-preserving since sigma > 0).
double LbKeoghDataSide(std::span<const double> zq, const double* env_lower,
                       const double* env_upper, double mu, double inv_sigma,
                       double best_so_far_sq,
                       std::vector<double>* contributions) {
  double sum = 0.0;
  const size_t m = zq.size();
  for (size_t i = 0; i < m; ++i) {
    const double lo = (env_lower[i] - mu) * inv_sigma;
    const double hi = (env_upper[i] - mu) * inv_sigma;
    double c = 0.0;
    if (zq[i] > hi) {
      const double d = zq[i] - hi;
      c = d * d;
    } else if (zq[i] < lo) {
      const double d = lo - zq[i];
      c = d * d;
    }
    (*contributions)[i] = c;
    sum += c;
    if (i % 16 == 15 && sum > best_so_far_sq) return kInf;
  }
  return sum > best_so_far_sq ? kInf : sum;
}

}  // namespace

std::string TrillionStats::ToString() const {
  std::ostringstream out;
  out << "candidates=" << candidates << " pruned_kim=" << pruned_kim
      << " pruned_keogh_q=" << pruned_keogh_query
      << " pruned_keogh_d=" << pruned_keogh_data
      << " dtw_abandoned=" << dtw_abandoned
      << " dtw_completed=" << dtw_completed;
  return out.str();
}

SearchResult TrillionSearch::FindBestMatch(std::span<const double> query) {
  SearchResult best;
  const size_t m = query.size();
  if (m < 4) return best;  // LB_KimFL admissibility floor; UCR queries
                           // are far longer in practice.

  const auto zq = ZNormalized(query);
  const size_t w = static_cast<size_t>(
      std::ceil(window_ratio_ * static_cast<double>(m)));
  const DtwOptions dtw_options{static_cast<int>(w)};
  const Envelope query_env =
      ComputeEnvelope(std::span<const double>(zq.data(), zq.size()), w);

  // UCR-suite reordering: evaluate LB_Keogh contributions at the indices
  // of largest |z| first, where excursions outside the envelope are most
  // likely and abandoning happens soonest.
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&zq](size_t a, size_t b) {
    return std::abs(zq[a]) > std::abs(zq[b]);
  });

  double best_sq = kInf;  // Best-so-far squared z-space DTW.
  std::vector<double> contrib_q(m), contrib_d(m), zbuf(m);

  for (uint32_t p = 0; p < dataset_->size(); ++p) {
    const TimeSeries& series = (*dataset_)[p];
    const size_t n = series.length();
    if (n < m) continue;
    const double* data = series.values().data();

    // Raw per-series envelope; slices of it are admissible (wider than
    // per-window envelopes near slice edges, which only loosens the
    // bound). Computed once per (series, query length).
    const Envelope series_env = ComputeEnvelope(series.View(), w);

    // Incremental sums for mean / stddev over the sliding window.
    double sum = 0.0, sum_sq = 0.0;
    for (size_t i = 0; i < m; ++i) {
      sum += data[i];
      sum_sq += data[i] * data[i];
    }
    for (size_t j = 0;; ++j) {
      ++stats_.candidates;
      ++best.candidates_examined;
      const double inv_m = 1.0 / static_cast<double>(m);
      const double mu = sum * inv_m;
      const double var = std::max(0.0, sum_sq * inv_m - mu * mu);
      const double sigma = std::sqrt(var);
      const double inv_sigma = sigma > kMinStddev ? 1.0 / sigma : 0.0;
      const double* window = data + j;

      const double lb_kim =
          LbKimFirstLastImplicitZ(zq, window, m, mu, inv_sigma);
      if (lb_kim >= best_sq) {
        ++stats_.pruned_kim;
      } else {
        const double lb_q =
            LbKeoghQuerySide(query_env, window, mu, inv_sigma, order,
                             best_sq, &contrib_q);
        if (std::isinf(lb_q)) {
          ++stats_.pruned_keogh_query;
        } else {
          const double lb_d = LbKeoghDataSide(
              zq, series_env.lower.data() + j, series_env.upper.data() + j,
              mu, inv_sigma, best_sq, &contrib_d);
          if (std::isinf(lb_d)) {
            ++stats_.pruned_keogh_data;
          } else {
            // z-normalize the window once the bounds fail to prune.
            for (size_t i = 0; i < m; ++i) {
              zbuf[i] = (window[i] - mu) * inv_sigma;
            }
            // The tighter bound's contributions drive cb pruning.
            const auto& contrib = lb_q >= lb_d ? contrib_q : contrib_d;
            const auto cb = CumulativeBound(
                std::span<const double>(contrib.data(), contrib.size()));
            const double threshold =
                best_sq == kInf ? kInf : std::sqrt(best_sq);
            const double d =
                DtwEarlyAbandonCb(zq, zbuf,
                                  std::span<const double>(cb.data(),
                                                          cb.size()),
                                  threshold, dtw_options);
            if (std::isinf(d)) {
              ++stats_.dtw_abandoned;
            } else {
              ++stats_.dtw_completed;
              const double d_sq = d * d;
              if (d_sq < best_sq) {
                best_sq = d_sq;
                best.match = {p, static_cast<uint32_t>(j),
                              static_cast<uint32_t>(m)};
              }
            }
          }
        }
      }
      if (j + m >= n) break;
      // Slide: drop data[j], admit data[j + m].
      sum += data[j + m] - data[j];
      sum_sq += data[j + m] * data[j + m] - data[j] * data[j];
    }
  }
  if (best_sq < kInf) {
    best.distance = std::sqrt(best_sq) / (2.0 * static_cast<double>(m));
  }
  return best;
}

}  // namespace onex
