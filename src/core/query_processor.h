// Copyright 2026 The ONEX Reproduction Authors.
// The ONEX online query processor (paper Sec. 5, Algorithm 2). Queries
// run DTW against the compact R-Space — first the representatives of a
// length (median-out order over the sum-sorted S array), then the
// members of the single best group (value-targeted outward scan) —
// instead of against the raw data, which is where the speedup over the
// baselines comes from. The justification that group members inherit
// the representative's similarity is the ED-DTW triangle inequality
// (Lemma 2).

#ifndef ONEX_CORE_QUERY_PROCESSOR_H_
#define ONEX_CORE_QUERY_PROCESSOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/exec_context.h"
#include "core/onex_base.h"
#include "core/query_match.h"
#include "distance/cascade.h"
#include "distance/lb_kim.h"
#include "util/status.h"
#include "util/timer.h"

namespace onex {

/// Optimization toggles (paper Sec. 5.3); the ablation bench flips them.
struct QueryOptions {
  /// LB_Kim / LB_Keogh pruning before DTW on representatives.
  bool use_cascade = true;
  /// Median-out traversal of the sum-sorted representative array.
  bool use_median_order = true;
  /// In-group outward scan from the member whose ED-to-rep is closest
  /// to DTW(query, rep); otherwise members are scanned in stored order.
  bool use_value_targeted_scan = true;
  /// Early-abandoning DTW everywhere.
  bool use_early_abandon = true;
  /// Any-length search: stop scanning further lengths once a
  /// representative with normalized DTW <= ST/2 is found (Lemma 2
  /// guarantees its members are all within ST).
  bool stop_within_st_half = true;
  /// Number of best-representative groups to descend into per length
  /// (the paper searches exactly 1). Larger values close the gap to the
  /// exhaustive oracle at a linear cost in extra member scans — an
  /// accuracy/time knob beyond the paper.
  size_t groups_to_search = 1;
};

/// Work counters for the time-response experiments, plus — since the
/// observability layer — the live pruning-cascade breakdown and stage
/// timings every query carries back through QueryResponse.stats.
struct QueryStats {
  uint64_t lengths_scanned = 0;
  uint64_t reps_compared = 0;
  uint64_t reps_pruned = 0;
  uint64_t members_compared = 0;
  /// Members admitted wholesale by the Lemma-2 fast path of
  /// FindAllWithin, without any per-member DTW.
  uint64_t members_admitted_by_lemma2 = 0;

  /// Pruning-cascade counters, incremented at every DTW decision point
  /// (representative scans, member scans, k-NN ranking, range scans).
  /// Invariant at every site: candidates == pruned_kim + pruned_keogh +
  /// dtw_abandoned + dtw_completed — the wire's `dtw_evaluated` is the
  /// last two summed, so the paper's pruning ratio
  /// (1 - dtw_evaluated/candidates) is available per query, live.
  /// Lemma-2-admitted members never enter the cascade and are counted
  /// only in members_admitted_by_lemma2. Likewise a range scan's
  /// representative whose Lemma-2 test the ED upper bound settles (no
  /// DTW run) counts in reps_compared but not as a cascade candidate.
  /// The best-so-far scans test each candidate against the best-so-far
  /// as of the last scored batch of kDtwBatchLanes, not the one a
  /// candidate-at-a-time scan would hold, so pruned_kim, pruned_keogh
  /// and dtw_abandoned (and reps_pruned / reps_compared) can differ from
  /// such a scan's; `candidates` and the answer do not.
  CascadeStats cascade;

  /// Stage timings, seconds. Accumulated at call/group granularity
  /// (one StageScope per representative scan, group scan, or ranking
  /// loop — never per candidate, so the cost is two clock reads against
  /// microseconds of DTW). queue_wait_seconds is filled by the server
  /// after execution (the processor never sees the queue); envelopes
  /// are precomputed at base-build time, so there is no query-side
  /// envelope stage to time.
  double queue_wait_seconds = 0;   ///< Admission -> worker pickup.
  double rep_scan_seconds = 0;     ///< Representative (group) scans.
  double member_scan_seconds = 0;  ///< Within-group member refinement.
  double knn_seconds = 0;          ///< Exact top-k ranking loop.
  double refine_seconds = 0;       ///< Threshold refine (split/merge).

  /// The stage-seconds field that times `stage`.
  double& seconds(QueryStage stage) {
    switch (stage) {
      case QueryStage::kQueued:
        return queue_wait_seconds;
      case QueryStage::kRepScan:
        return rep_scan_seconds;
      case QueryStage::kMemberScan:
        return member_scan_seconds;
      case QueryStage::kKnn:
        return knn_seconds;
      case QueryStage::kRefine:
        break;
    }
    return refine_seconds;
  }

  void Reset() { *this = QueryStats(); }

  /// Merges another call's counters into this accumulator.
  void Add(const QueryStats& other) {
    lengths_scanned += other.lengths_scanned;
    reps_compared += other.reps_compared;
    reps_pruned += other.reps_pruned;
    members_compared += other.members_compared;
    members_admitted_by_lemma2 += other.members_admitted_by_lemma2;
    cascade.Add(other.cascade);
    queue_wait_seconds += other.queue_wait_seconds;
    rep_scan_seconds += other.rep_scan_seconds;
    member_scan_seconds += other.member_scan_seconds;
    knn_seconds += other.knn_seconds;
    refine_seconds += other.refine_seconds;
  }

  std::string ToString() const;
};

/// One query stage, scoped: adds the scope's elapsed seconds to the
/// stats field of `stage` and publishes `stage` as the probe's live
/// stage, restoring the previous one on exit (stages nest —
/// FindAllWithin's member scans sit inside its group loop). Used at
/// call/group granularity only, so the live stage (INSPECT, watchdog)
/// and the post-hoc breakdown always name the same stages. The probe
/// may be nullptr (no visibility asked).
class StageScope {
 public:
  StageScope(QueryStats* stats, InflightProbe* probe, QueryStage stage)
      : seconds_(&stats->seconds(stage)), probe_(probe) {
    if (probe_ == nullptr) return;
    prev_ = probe_->CurrentStage();
    probe_->PublishStage(stage);
  }
  ~StageScope() {
    *seconds_ += timer_.ElapsedSeconds();
    if (probe_ != nullptr) probe_->PublishStage(prev_);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  double* seconds_;
  InflightProbe* probe_;
  QueryStage prev_ = QueryStage::kQueued;
  Timer timer_;
};

/// Stateless query engine over a built base. Every query method is const
/// and reentrant: work counters are accumulated per call and returned
/// through the optional trailing `stats` out-parameter (nullptr simply
/// discards them), so one processor can serve concurrent readers
/// (`onex::Engine` and the server's worker pool rely on this). The
/// processor holds NO mutable state — the old member accumulator is
/// gone; callers wanting running totals QueryStats::Add per call.
///
/// Interruption: every query method accepts an optional ExecContext.
/// Inner loops test it through an amortized ExecChecker (one atomic
/// load / clock read per ctx->check_every candidates); when the
/// deadline passes or the token fires the method stops descending and
/// returns Status kDeadlineExceeded / kCancelled. Matches confirmed
/// before the interruption are flushed to the context's progress sink
/// (a final append event), so the API layer can still hand the caller a
/// partial response. With ctx == nullptr the old behavior — and the old
/// cost — is unchanged.
class QueryProcessor {
 public:
  /// `base` must outlive the processor.
  explicit QueryProcessor(const OnexBase* base, QueryOptions options = {})
      : base_(base), options_(options) {}

  /// Q1 with Match = Exact(L): best match among subsequences of exactly
  /// `length`. NotFound if that length was not constructed.
  Result<QueryMatch> FindBestMatchOfLength(
      std::span<const double> query, size_t length,
      QueryStats* stats = nullptr, const ExecContext* ctx = nullptr) const;

  /// Q1 with Match = Any: best match across all constructed lengths,
  /// searched in the optimized order (query length, then decreasing,
  /// then increasing — Sec. 5.3). Progress events are snapshots of the
  /// current best match.
  Result<QueryMatch> FindBestMatch(std::span<const double> query,
                                   QueryStats* stats = nullptr,
                                   const ExecContext* ctx = nullptr) const;

  /// k most similar sequences from the best-matching group (Algorithm
  /// 2's getKSim). Results are sorted by distance, at most k of them.
  /// Progress events are snapshots of the current top-k.
  Result<std::vector<QueryMatch>> FindKSimilar(
      std::span<const double> query, size_t k, size_t length = 0,
      QueryStats* stats = nullptr, const ExecContext* ctx = nullptr) const;

  /// Q1 range form (`WHERE Sim <= ST`): every sequence of `length`
  /// (0 = all lengths) whose normalized DTW to the query is <= `st`.
  /// Lemma 2 fast path: when DTW(query, representative) <= st/2, the
  /// whole group qualifies with NO per-member DTW — the paper's
  /// guarantee made operational; other groups are scanned with
  /// early-abandoning DTW at threshold st. On equal lengths the ED to
  /// the representative, an exact DTW upper bound, settles the st/2 test
  /// without a DTW where it can. Member scans fill the batch kernel's
  /// lanes across group boundaries. Results sorted by distance.
  /// Fast-path members report their upper bound (st) as distance — and
  /// carry distance_is_upper_bound — unless `exact_distances` is set,
  /// which recomputes them. Progress events append each group's newly
  /// confirmed matches as the scan visits it.
  Result<std::vector<QueryMatch>> FindAllWithin(
      std::span<const double> query, double st, size_t length = 0,
      bool exact_distances = false, QueryStats* stats = nullptr,
      const ExecContext* ctx = nullptr) const;

  /// Q2, user-driven: groups of `length` restricted to subsequences of
  /// series `series_id`; only groups contributing >= 2 such subsequences
  /// (i.e., recurring similarity) are returned. Confirmed groups are
  /// streamed to the context's progress sink as GroupProgress append
  /// events; interruption flushes the groups confirmed so far (the API
  /// layer turns them into a partial Seasonal response) and returns
  /// kCancelled / kDeadlineExceeded.
  Result<std::vector<std::vector<SubsequenceRef>>> SeasonalSimilarity(
      uint32_t series_id, size_t length,
      const ExecContext* ctx = nullptr) const;

  /// Q2, data-driven: all groups of `length` with >= 2 members. Same
  /// streaming / interruption contract as SeasonalSimilarity.
  Result<std::vector<std::vector<SubsequenceRef>>> SimilarGroupsOfLength(
      size_t length, const ExecContext* ctx = nullptr) const;

 private:
  /// Best representative of `entry` for `query`: (group id, normalized
  /// DTW). `query_extrema` is ExtremaOf(query), computed once per query
  /// for LB_Kim. `bsf` seeds pruning (normalized units). Candidates that
  /// pass LB_Kim and LB_Keogh are scored kDtwBatchLanes at a time; the
  /// bounds and the DTW's abandon threshold use the best-so-far as of
  /// the last scored batch. Stops early (partial best-so-far) when
  /// `check` fires, which it is asked before every batch.
  std::pair<uint32_t, double> BestRepresentative(
      std::span<const double> query, const SeriesExtrema& query_extrema,
      const GtiEntry& entry, double bsf, QueryStats& stats,
      ExecChecker& check) const;

  /// Top options_.groups_to_search representatives, ascending by
  /// normalized DTW (no pruning: all representatives are evaluated).
  std::vector<std::pair<uint32_t, double>> TopRepresentatives(
      std::span<const double> query, const GtiEntry& entry,
      QueryStats& stats, ExecChecker& check) const;

  /// Searches the chosen groups of one entry (1 group on the paper's
  /// path, several with groups_to_search > 1) and returns the best
  /// member found, seeded with `bsf`.
  QueryMatch SearchEntry(std::span<const double> query,
                         const SeriesExtrema& query_extrema,
                         const GtiEntry& entry, double bsf,
                         double* best_rep_distance, QueryStats& stats,
                         ExecChecker& check) const;

  /// Scans the chosen group; returns the best member (and distance),
  /// seeded with `bsf`. `rep_distance` is DTW(query, representative),
  /// the target of the value-directed scan. Members are scored in
  /// batches like BestRepresentative's candidates.
  QueryMatch SearchGroup(std::span<const double> query, const GtiEntry& entry,
                         uint32_t group_id, double rep_distance, double bsf,
                         QueryStats& stats, ExecChecker& check) const;

  /// Lengths in the optimized search order for a query of length m.
  std::vector<size_t> OrderedLengths(size_t m) const;

  /// Delivers one call's counters to the caller (nullptr = not wanted).
  static void CommitStats(const QueryStats& call, QueryStats* out) {
    if (out != nullptr) *out = call;
  }

  const OnexBase* base_;
  QueryOptions options_;
};

}  // namespace onex

#endif  // ONEX_CORE_QUERY_PROCESSOR_H_
