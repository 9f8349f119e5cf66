// Copyright 2026 The ONEX Reproduction Authors.
// Counters for the cascading lower-bound pruner (paper Sec. 5.3, adopted
// from [11], [22]): candidates pass through LB_Kim (O(1)-ish) then
// LB_Keogh (O(n)) before the O(n^2) early-abandoning DTW is paid. The
// cascade itself lives in QueryProcessor (core/query_processor.h); these
// counters let STATS, METRICS and the benches report per-stage pruning.

#ifndef ONEX_DISTANCE_CASCADE_H_
#define ONEX_DISTANCE_CASCADE_H_

#include <cstdint>

namespace onex {

/// Per-stage counters accumulated across a query's candidates.
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
  /// Work settled without a DTW decision — a range scan's
  /// Lemma-2-admitted members, and its representatives whose st/2 test
  /// the ED upper bound settles — is never a candidate. A best-so-far
  /// scan tests each candidate against the best-so-far as of its last
  /// scored batch of DTWs, so how candidates split between the pruned
  /// and abandoned stages can differ from a candidate-at-a-time scan's;
  /// the number of candidates cannot.
  bool Consistent() const {
    return candidates ==
           pruned_kim + pruned_keogh + dtw_abandoned + dtw_completed;
  }
};

}  // namespace onex

#endif  // ONEX_DISTANCE_CASCADE_H_
