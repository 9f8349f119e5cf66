// Copyright 2026 The ONEX Reproduction Authors.
// Cascading lower-bound pruner (paper Sec. 5.3, adopted from [11], [22]):
// candidates pass through LB_Kim (O(1)-ish) then LB_Keogh (O(n)) before
// the O(n^2) early-abandoning DTW is paid. Keeps counters so the
// ablation bench can report per-stage pruning rates.

#ifndef ONEX_DISTANCE_CASCADE_H_
#define ONEX_DISTANCE_CASCADE_H_

#include <cstdint>
#include <span>
#include <string>

#include "distance/dtw.h"
#include "distance/envelope.h"

namespace onex {

/// Per-stage counters accumulated across Distance() calls.
struct CascadeStats {
  uint64_t candidates = 0;      ///< Total candidates examined.
  uint64_t pruned_kim = 0;      ///< Dropped by LB_Kim.
  uint64_t pruned_keogh = 0;    ///< Dropped by LB_Keogh.
  uint64_t dtw_abandoned = 0;   ///< DTW started but abandoned early.
  uint64_t dtw_completed = 0;   ///< Full DTW evaluations.

  void Reset() { *this = CascadeStats(); }

  /// Merges another accumulation into this one (per-query counters roll
  /// up into the server-wide totals this way).
  void Add(const CascadeStats& other) {
    candidates += other.candidates;
    pruned_kim += other.pruned_kim;
    pruned_keogh += other.pruned_keogh;
    dtw_abandoned += other.dtw_abandoned;
    dtw_completed += other.dtw_completed;
  }

  /// Every candidate is accounted to exactly one terminal stage.
  /// (dtw_abandoned + dtw_completed is the wire's `dtw_evaluated`.)
  bool Consistent() const {
    return candidates ==
           pruned_kim + pruned_keogh + dtw_abandoned + dtw_completed;
  }

  std::string ToString() const;
};

/// Stage toggles (all on by default); the ablation bench switches these.
struct CascadeOptions {
  bool use_kim = true;
  bool use_keogh = true;
  bool use_early_abandon = true;
};

/// Evaluates DTW(query, candidate) only when no lower bound exceeds
/// `best_so_far`. Returns +infinity when pruned or abandoned, else the
/// exact DTW under `dtw_options`.
class CascadePruner {
 public:
  explicit CascadePruner(DtwOptions dtw_options,
                         CascadeOptions cascade_options = {})
      : dtw_options_(dtw_options), options_(cascade_options) {}

  /// `envelope` is the candidate-side envelope matching query length;
  /// pass nullptr when unavailable (e.g. cross-length comparisons), which
  /// skips the LB_Keogh stage.
  double Distance(std::span<const double> query,
                  std::span<const double> candidate,
                  const Envelope* envelope, double best_so_far);

  const CascadeStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  DtwOptions dtw_options_;
  CascadeOptions options_;
  CascadeStats stats_;
};

}  // namespace onex

#endif  // ONEX_DISTANCE_CASCADE_H_
