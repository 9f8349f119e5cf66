#include "distance/cascade.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "distance/lb_kim.h"
#include "distance/lb_keogh.h"

namespace onex {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

std::string CascadeStats::ToString() const {
  std::ostringstream out;
  out << "candidates=" << candidates << " pruned_kim=" << pruned_kim
      << " pruned_keogh=" << pruned_keogh
      << " dtw_abandoned=" << dtw_abandoned
      << " dtw_completed=" << dtw_completed;
  return out.str();
}

double CascadePruner::Distance(std::span<const double> query,
                               std::span<const double> candidate,
                               const Envelope* envelope, double best_so_far) {
  ++stats_.candidates;
  if (options_.use_kim) {
    if (LbKim(query, candidate) > best_so_far) {
      ++stats_.pruned_kim;
      return kInf;
    }
  }
  if (options_.use_keogh && envelope != nullptr &&
      envelope->size() == query.size()) {
    if (LbKeoghEarlyAbandon(query, *envelope, best_so_far) > best_so_far) {
      ++stats_.pruned_keogh;
      return kInf;
    }
  }
  double d;
  if (options_.use_early_abandon) {
    d = DtwEarlyAbandon(query, candidate, best_so_far, dtw_options_);
    if (std::isinf(d)) {
      ++stats_.dtw_abandoned;
      return kInf;
    }
  } else {
    d = DtwDistance(query, candidate, dtw_options_);
  }
  ++stats_.dtw_completed;
  return d;
}

}  // namespace onex
