#include "core/query_processor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>

#include "distance/dtw.h"
#include "distance/euclidean.h"
#include "distance/lb_keogh.h"
#include "distance/lb_kim.h"
#include "util/trace.h"

namespace onex {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Normalization denominator of Def. 6 for a query of length m against
// candidates of length len.
inline double Norm(size_t m, size_t len) {
  return 2.0 * static_cast<double>(std::max(m, len));
}

/// Up to kDtwBatchLanes candidates of one length waiting for one
/// DtwEarlyAbandonBatch call, each tagged with the caller's id for its
/// result. Every DTW of the query processor goes through one: a scan
/// that fills the queue from several groups keeps the kernel's lanes
/// full where per-group batches would leave them part empty.
class LaneQueue {
 public:
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == kDtwBatchLanes; }
  size_t size() const { return size_; }
  /// Id of the oldest queued candidate; the queue must not be empty.
  size_t front_id() const { return ids_[0]; }

  void Push(std::span<const double> values, size_t id) {
    values_[size_] = values;
    ids_[size_] = id;
    ++size_;
  }

  /// Scores the queued candidates in one kernel call, empties the queue,
  /// and hands each result to on_score(id, distance) in queue order. The
  /// distance is, bit for bit, DtwEarlyAbandon(query, candidate,
  /// threshold * norm, options) / norm (threshold in normalized units;
  /// +inf scores exactly).
  template <class OnScore>
  void Score(std::span<const double> query, double threshold, double norm,
             const DtwOptions& options, const OnScore& on_score) {
    if (size_ == 0) return;
    std::array<double, kDtwBatchLanes> distances;
    DtwEarlyAbandonBatch(query, std::span(values_.data(), size_),
                         threshold * norm, distances, options);
    const size_t count = size_;
    size_ = 0;
    for (size_t c = 0; c < count; ++c) on_score(ids_[c], distances[c] / norm);
  }

 private:
  std::array<std::span<const double>, kDtwBatchLanes> values_;
  std::array<size_t, kDtwBatchLanes> ids_;
  size_t size_ = 0;
};

/// Scores candidates [0, size), candidate i being view(i), a LaneQueue
/// at a time, and hands each result to on_score(i, distance) in
/// candidate order. `check` is consulted before every batch; once it
/// fires, no further batch runs.
template <class View, class OnScore>
void ScoreInBatches(std::span<const double> query, size_t size,
                    const View& view, double threshold, double norm,
                    const DtwOptions& options, ExecChecker& check,
                    const OnScore& on_score) {
  LaneQueue batch;
  for (size_t i = 0; i < size; ++i) {
    batch.Push(view(i), i);
    if (!batch.full() && i + 1 < size) continue;
    if (check.ShouldStop(batch.size())) return;
    batch.Score(query, threshold, norm, options, on_score);
  }
}

/// The best-so-far scan of Q1/Q1k (Sec. 5.3): candidates offered in
/// visit order wait in a LaneQueue, and each full queue, and the tail
/// at Flush(), is scored in one kernel call at threshold(), the
/// best-so-far as of the last scored batch. Results apply in offer
/// order with a strict <, so the first candidate at the lowest distance
/// wins, as in a scan that scores one candidate at a time: a threshold
/// that is stale within a batch only prunes less, and a candidate that
/// a current threshold would have pruned or abandoned is no better than
/// the best before it. `check` is consulted before every batch; once it
/// fires, nothing more is scored.
class BestSoFarScan {
 public:
  /// `bsf` seeds the threshold (normalized units); `compared` counts
  /// each scored candidate.
  BestSoFarScan(std::span<const double> query, double bsf, double norm,
                const DtwOptions& dtw_options, bool early_abandon,
                ExecChecker& check, QueryStats& stats, uint64_t& compared)
      : query_(query),
        bsf_(bsf),
        norm_(norm),
        dtw_options_(dtw_options),
        early_abandon_(early_abandon),
        check_(check),
        cascade_(stats.cascade),
        compared_(compared) {}

  /// min(bsf, best) as of the last scored batch: the cascade's pruning
  /// threshold.
  double threshold() const { return std::min(bsf_, best_); }

  /// False once the checker has fired; offers are then dropped.
  bool live() const { return check_.status().ok(); }

  /// Queues a candidate; `id` names it in best_id().
  void Offer(std::span<const double> values, size_t id) {
    if (!live()) return;
    queue_.Push(values, id);
    if (queue_.full()) Flush();
  }

  /// Scores the queued candidates unless the checker fires first.
  void Flush() {
    if (queue_.empty()) return;
    if (check_.ShouldStop(queue_.size())) {
      queue_ = LaneQueue();
      return;
    }
    queue_.Score(query_, early_abandon_ ? threshold() : kInf, norm_,
                 dtw_options_, [&](size_t id, double d) {
                   ++compared_;
                   ++cascade_.candidates;
                   ++(std::isinf(d) ? cascade_.dtw_abandoned
                                    : cascade_.dtw_completed);
                   if (d < best_) {
                     best_ = d;
                     best_id_ = id;
                   }
                 });
  }

  /// Lowest distance scored (+inf if none) and its candidate's id.
  double best() const { return best_; }
  size_t best_id() const { return best_id_; }

 private:
  std::span<const double> query_;
  double bsf_;
  double norm_;
  DtwOptions dtw_options_;
  bool early_abandon_;
  ExecChecker& check_;
  CascadeStats& cascade_;
  uint64_t& compared_;
  LaneQueue queue_;
  double best_ = kInf;
  size_t best_id_ = 0;
};

// Margin of the range scan's representative threshold over st/2. A DTW
// that abandons past (st/2) * kRepAbandonSlack exceeds st/2 even after
// the rounding of its square root and normalization, so every abandoned
// representative gets the verdict its full DTW would give.
constexpr double kRepAbandonSlack = 1.0 + 1e-9;

}  // namespace

std::string QueryStats::ToString() const {
  std::ostringstream out;
  out << "lengths=" << lengths_scanned << " reps_compared=" << reps_compared
      << " reps_pruned=" << reps_pruned
      << " members_compared=" << members_compared
      << " lemma2_admitted=" << members_admitted_by_lemma2;
  return out.str();
}

std::pair<uint32_t, double> QueryProcessor::BestRepresentative(
    std::span<const double> query, const SeriesExtrema& query_extrema,
    const GtiEntry& entry, double bsf, QueryStats& stats,
    ExecChecker& check) const {
  StageScope stage(&stats, check.probe(), QueryStage::kRepScan);
  const size_t g = entry.NumGroups();
  const size_t m = query.size();
  const double norm = Norm(m, entry.length);
  BestSoFarScan scan(query, bsf, norm,
                     DtwOptions::FromRatio(base_->options().window_ratio, m,
                                           entry.length),
                     options_.use_early_abandon, check, stats,
                     stats.reps_compared);

  // Visit order: median-out over the sum-sorted S array (Sec. 5.3) —
  // start at the representative with the median Dc-sum and alternate
  // left/right — or plain stored order when the optimization is off.
  // Once the checker fires every remaining `consider` is a cheap no-op,
  // so the loop drains instead of pointer-chasing through break logic.
  const auto prune = [&](uint64_t& stage_count) {
    ++stats.cascade.candidates;
    ++stats.reps_pruned;
    ++stage_count;
  };
  auto consider = [&](uint32_t k) {
    if (!scan.live()) return;
    const LsiEntry& group = entry.groups[k];
    const std::span<const double> rep =
        RepresentativeOf(group, base_->dataset());
    const double prune_at = scan.threshold();
    if (options_.use_cascade && prune_at < kInf) {
      if (LbKim(query, query_extrema, rep, group.envelope.extrema) / norm >
          prune_at) {
        prune(stats.cascade.pruned_kim);
        return;
      }
      if (m == entry.length &&
          LbKeoghEarlyAbandon(query, group.envelope, prune_at * norm) / norm >
              prune_at) {
        prune(stats.cascade.pruned_keogh);
        return;
      }
    }
    scan.Offer(rep, k);
  };

  if (options_.use_median_order && !entry.sum_sorted.empty()) {
    const size_t mid = g / 2;
    consider(entry.sum_sorted[mid].first);
    for (size_t offset = 1; offset <= g; ++offset) {
      if (mid >= offset) consider(entry.sum_sorted[mid - offset].first);
      if (mid + offset < g) consider(entry.sum_sorted[mid + offset].first);
    }
  } else {
    for (uint32_t k = 0; k < g; ++k) consider(k);
  }
  scan.Flush();
  return {static_cast<uint32_t>(scan.best_id()), scan.best()};
}

QueryMatch QueryProcessor::SearchGroup(std::span<const double> query,
                                       const GtiEntry& entry,
                                       uint32_t group_id, double rep_distance,
                                       double bsf, QueryStats& stats,
                                       ExecChecker& check) const {
  StageScope stage(&stats, check.probe(), QueryStage::kMemberScan);
  const LsiEntry& group = entry.groups[group_id];
  const size_t m = query.size();
  BestSoFarScan scan(query, bsf, Norm(m, entry.length),
                     DtwOptions::FromRatio(base_->options().window_ratio, m,
                                           entry.length),
                     options_.use_early_abandon, check, stats,
                     stats.members_compared);
  auto consider = [&](size_t i) {
    scan.Offer(group.members[i].ref.View(base_->dataset()), i);
  };

  const size_t size = group.members.size();
  if (options_.use_value_targeted_scan && size != 0) {
    // Start at the member whose stored ED-to-rep is closest in value to
    // DTW(query, rep) and fan outwards (Sec. 5.3): nearby stored EDs
    // mean similar geometry relative to the representative, so the best
    // match tends to be reached — and the best-so-far tightened — early.
    const size_t start = group.ClosestMemberTo(rep_distance);
    consider(start);
    for (size_t offset = 1; offset <= size; ++offset) {
      if (start >= offset) consider(start - offset);
      if (start + offset < size) consider(start + offset);
    }
  } else {
    for (size_t i = 0; i < size; ++i) consider(i);
  }
  scan.Flush();

  QueryMatch best;
  best.distance = scan.best();
  best.group_id = group_id;
  if (std::isfinite(best.distance)) best.ref = group.members[scan.best_id()].ref;
  return best;
}

std::vector<std::pair<uint32_t, double>> QueryProcessor::TopRepresentatives(
    std::span<const double> query, const GtiEntry& entry,
    QueryStats& stats, ExecChecker& check) const {
  StageScope stage(&stats, check.probe(), QueryStage::kRepScan);
  const size_t m = query.size();
  const double norm = Norm(m, entry.length);
  const DtwOptions dtw_options = DtwOptions::FromRatio(
      base_->options().window_ratio, m, entry.length);
  std::vector<std::pair<uint32_t, double>> reps;
  reps.reserve(entry.NumGroups());
  ScoreInBatches(
      query, entry.NumGroups(),
      [&](size_t k) {
        return RepresentativeOf(entry.groups[k], base_->dataset());
      },
      kInf, norm, dtw_options, check, [&](size_t k, double d) {
        ++stats.reps_compared;
        ++stats.cascade.candidates;
        ++stats.cascade.dtw_completed;
        reps.push_back({static_cast<uint32_t>(k), d});
      });
  const size_t top =
      std::min(options_.groups_to_search, reps.size());
  std::partial_sort(reps.begin(), reps.begin() + static_cast<ptrdiff_t>(top),
                    reps.end(), [](const auto& a, const auto& b) {
                      return a.second < b.second;
                    });
  reps.resize(top);
  return reps;
}

QueryMatch QueryProcessor::SearchEntry(std::span<const double> query,
                                       const SeriesExtrema& query_extrema,
                                       const GtiEntry& entry, double bsf,
                                       double* best_rep_distance,
                                       QueryStats& stats,
                                       ExecChecker& check) const {
  QueryMatch best;
  best.distance = std::numeric_limits<double>::infinity();
  if (options_.groups_to_search <= 1) {
    const auto [group_id, rep_d] = BestRepresentative(
        query, query_extrema, entry, bsf, stats, check);
    *best_rep_distance = rep_d;
    if (!std::isfinite(rep_d)) return best;
    return SearchGroup(query, entry, group_id, rep_d,
                       std::min(bsf, best.distance), stats, check);
  }
  const auto tops = TopRepresentatives(query, entry, stats, check);
  *best_rep_distance =
      tops.empty() ? std::numeric_limits<double>::infinity()
                   : tops.front().second;
  for (const auto& [group_id, rep_d] : tops) {
    QueryMatch match = SearchGroup(query, entry, group_id, rep_d,
                                   std::min(bsf, best.distance), stats,
                                   check);
    if (match.distance < best.distance) best = match;
  }
  return best;
}

std::vector<size_t> QueryProcessor::OrderedLengths(size_t m) const {
  const std::vector<size_t> all = base_->gti().Lengths();
  if (all.empty()) return all;
  // Position of the first length >= m.
  const auto pivot = std::lower_bound(all.begin(), all.end(), m);
  std::vector<size_t> ordered;
  ordered.reserve(all.size());
  // Exact length first (when present), then decreasing below it, then
  // increasing above (Sec. 5.3).
  size_t above = static_cast<size_t>(pivot - all.begin());
  size_t below = above;  // First index strictly below m is below-1.
  if (above < all.size() && all[above] == m) {
    ordered.push_back(all[above]);
    ++above;
  }
  while (below > 0) ordered.push_back(all[--below]);
  while (above < all.size()) ordered.push_back(all[above++]);
  return ordered;
}

Result<QueryMatch> QueryProcessor::FindBestMatchOfLength(
    std::span<const double> query, size_t length, QueryStats* stats,
    const ExecContext* ctx) const {
  ONEX_TRACE_SPAN("q1.best_match_of_length");
  if (query.empty()) return Status::InvalidArgument("empty query");
  const GtiEntry* entry = base_->EntryFor(length);
  if (entry == nullptr || entry->NumGroups() == 0) {
    return Status::NotFound("length " + std::to_string(length) +
                            " is not in the ONEX base");
  }
  QueryStats call;
  ExecChecker check(ctx);
  check.ObserveCascade(&call.cascade);
  ++call.lengths_scanned;
  double rep_d = kInf;
  QueryMatch match = SearchEntry(query, ExtremaOf(query), *entry, kInf,
                                 &rep_d, call, check);
  CommitStats(call, stats);
  if (!check.status().ok()) {
    // Flush the best candidate found before the interruption, so the
    // API layer can return it flagged partial.
    if (std::isfinite(match.distance)) {
      check.Report(std::span<const QueryMatch>(&match, 1), 1.0,
                   /*snapshot=*/true);
    }
    return check.status();
  }
  if (!std::isfinite(match.distance)) {
    return Status::NotFound("group is empty");
  }
  return match;
}

Result<QueryMatch> QueryProcessor::FindBestMatch(std::span<const double> query,
                                                 QueryStats* stats,
                                                 const ExecContext* ctx) const {
  ONEX_TRACE_SPAN("q1.best_match");
  if (query.empty()) return Status::InvalidArgument("empty query");
  const double half_st = base_->options().st / 2.0;
  QueryStats call;
  ExecChecker check(ctx);
  check.ObserveCascade(&call.cascade);
  QueryMatch best;
  best.distance = kInf;
  const SeriesExtrema query_extrema = ExtremaOf(query);
  const std::vector<size_t> ordered = OrderedLengths(query.size());
  size_t lengths_done = 0;
  for (size_t length : ordered) {
    const GtiEntry* entry = base_->EntryFor(length);
    if (entry == nullptr || entry->NumGroups() == 0) continue;
    ++call.lengths_scanned;
    double rep_d = kInf;
    QueryMatch match = SearchEntry(query, query_extrema, *entry,
                                   best.distance, &rep_d, call, check);
    ++lengths_done;
    if (match.distance < best.distance) {
      best = match;
      // Mid-scan improvements only matter to a live watcher; the
      // capture-only wrapper is served by the interrupt-time flush
      // below (same rule as FindKSimilar's periodic snapshots).
      if (check.wants_live_progress() && std::isfinite(best.distance)) {
        check.Report(std::span<const QueryMatch>(&best, 1),
                     static_cast<double>(lengths_done) /
                         static_cast<double>(ordered.size()),
                     /*snapshot=*/true);
      }
    }
    if (check.ShouldStop()) break;
    // Lemma 2 stop: a representative within ST/2 guarantees every member
    // of its group is within ST of the query.
    if (options_.stop_within_st_half && rep_d <= half_st) break;
  }
  CommitStats(call, stats);
  if (!check.status().ok()) {
    if (std::isfinite(best.distance)) {
      check.Report(std::span<const QueryMatch>(&best, 1), 1.0,
                   /*snapshot=*/true);
    }
    return check.status();
  }
  if (!std::isfinite(best.distance)) {
    return Status::NotFound("ONEX base has no groups");
  }
  return best;
}

Result<std::vector<QueryMatch>> QueryProcessor::FindKSimilar(
    std::span<const double> query, size_t k, size_t length,
    QueryStats* stats, const ExecContext* ctx) const {
  ONEX_TRACE_SPAN("q1.k_similar");
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (k == 0) return Status::InvalidArgument("k must be positive");
  QueryStats call;
  ExecChecker check(ctx);
  check.ObserveCascade(&call.cascade);
  const GtiEntry* entry = nullptr;
  uint32_t group_id = 0;
  double rep_d = kInf;
  const SeriesExtrema query_extrema = ExtremaOf(query);
  if (length != 0) {
    entry = base_->EntryFor(length);
    if (entry == nullptr || entry->NumGroups() == 0) {
      return Status::NotFound("length " + std::to_string(length) +
                              " is not in the ONEX base");
    }
    std::tie(group_id, rep_d) =
        BestRepresentative(query, query_extrema, *entry, kInf, call, check);
  } else {
    // Any length: locate the best group via the Q1 path, then rank its
    // members.
    double best_rep = kInf;
    for (size_t len : OrderedLengths(query.size())) {
      if (check.ShouldStop()) break;
      const GtiEntry* candidate = base_->EntryFor(len);
      if (candidate == nullptr || candidate->NumGroups() == 0) continue;
      ++call.lengths_scanned;
      const auto [gid, d] = BestRepresentative(query, query_extrema,
                                               *candidate, best_rep, call,
                                               check);
      if (d < best_rep) {
        best_rep = d;
        entry = candidate;
        group_id = gid;
        rep_d = d;
      }
      if (options_.stop_within_st_half && d <= base_->options().st / 2.0) {
        break;
      }
    }
    if (entry == nullptr) {
      CommitStats(call, stats);
      if (!check.status().ok()) return check.status();
      return Status::NotFound("ONEX base has no groups");
    }
  }

  // Rank every member of the chosen group (no early abandon: we need
  // exact distances for the top-k ordering), kDtwBatchLanes at a time.
  const LsiEntry& group = entry->groups[group_id];
  const double norm = Norm(query.size(), entry->length);
  const DtwOptions dtw_options = DtwOptions::FromRatio(
      base_->options().window_ratio, query.size(), entry->length);
  std::vector<QueryMatch> matches;
  matches.reserve(group.members.size());
  // Running top-k for LIVE progress snapshots, maintained incrementally
  // (sorted, capped at k) so each emission costs O(k), never a copy or
  // sort of the full accumulation. Capture-only contexts skip the
  // per-member maintenance entirely — their one interrupt-time flush
  // sorts the accumulated matches once instead.
  std::vector<QueryMatch> topk;
  const bool track_topk = check.wants_live_progress();
  if (track_topk) topk.reserve(k + 1);
  auto flush_topk = [&](double fraction) {
    check.Report(std::span<const QueryMatch>(topk.data(), topk.size()),
                 fraction, /*snapshot=*/true);
  };
  {
    // Scoped so the ranking time is flushed into `call` before
    // CommitStats copies it out below.
    StageScope stage(&call, check.probe(), QueryStage::kKnn);
    const size_t size = group.members.size();
    ScoreInBatches(
        query, size,
        [&](size_t i) { return group.members[i].ref.View(base_->dataset()); },
        kInf, norm, dtw_options, check, [&](size_t i, double d) {
          ++call.members_compared;
          ++call.cascade.candidates;
          ++call.cascade.dtw_completed;
          QueryMatch match;
          match.ref = group.members[i].ref;
          match.group_id = group_id;
          match.distance = d;
          matches.push_back(match);
          if (track_topk &&
              (topk.size() < k || MatchDistanceLess(match, topk.back()))) {
            topk.insert(std::upper_bound(topk.begin(), topk.end(), match,
                                         MatchDistanceLess),
                        match);
            if (topk.size() > k) topk.pop_back();
          }
          // Periodic snapshots only when a live watcher exists: the API
          // layer's partial-capture wrapper is served by the
          // final/interrupt flush alone.
          if (check.wants_live_progress() && (i + 1) % 32 == 0) {
            flush_topk(static_cast<double>(i + 1) /
                       static_cast<double>(size));
          }
        });
  }
  CommitStats(call, stats);
  if (!check.status().ok()) {
    if (!matches.empty()) {
      if (track_topk) {
        flush_topk(1.0);
      } else {
        // Capture-only: build the top-k once, now that it is needed.
        const size_t keep = std::min(k, matches.size());
        std::partial_sort(matches.begin(),
                          matches.begin() + static_cast<ptrdiff_t>(keep),
                          matches.end(), MatchDistanceLess);
        check.Report(std::span<const QueryMatch>(matches.data(), keep), 1.0,
                     /*snapshot=*/true);
      }
    }
    return check.status();
  }
  std::sort(matches.begin(), matches.end(), MatchDistanceLess);
  if (matches.size() > k) matches.resize(k);
  return matches;
}

Result<std::vector<QueryMatch>> QueryProcessor::FindAllWithin(
    std::span<const double> query, double st, size_t length,
    bool exact_distances, QueryStats* stats, const ExecContext* ctx) const {
  ONEX_TRACE_SPAN("q1.range_within");
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (st <= 0.0) return Status::InvalidArgument("st must be positive");

  std::vector<size_t> lengths;
  if (length != 0) {
    if (base_->EntryFor(length) == nullptr) {
      return Status::NotFound("length " + std::to_string(length) +
                              " is not in the ONEX base");
    }
    lengths.push_back(length);
  } else {
    lengths = base_->gti().Lengths();
  }

  QueryStats call;
  ExecChecker check(ctx);
  check.ObserveCascade(&call.cascade);
  std::vector<QueryMatch> matches;
  const size_t m = query.size();
  const double half_st = st / 2.0;

  // Members of groups Lemma 2 does not admit wait in `queued` for the
  // range kernel, which scores them kDtwBatchLanes at a time across group
  // boundaries. Each holds a placeholder (NaN distance) in `matches` at
  // the position its match takes, so matches keep group and member
  // order whatever the batching: the unstable sort below only gives the
  // same answer for the same input order. Everything before the oldest
  // queued member is final.
  LaneQueue queued;
  // Drops the placeholders at or past `first`: members a scored batch
  // rejected, or the unscored ones of an interrupted scan.
  const auto drop_placeholders = [&](size_t first) {
    matches.erase(std::remove_if(matches.begin() + first, matches.end(),
                                 [](const QueryMatch& match) {
                                   return std::isnan(match.distance);
                                 }),
                  matches.end());
  };
  const auto final_count = [&] {
    return queued.empty() ? matches.size() : queued.front_id();
  };

  // Work-fraction denominator for progress: total groups to visit.
  size_t total_groups = 0;
  for (size_t len : lengths) {
    const GtiEntry* entry = base_->EntryFor(len);
    if (entry != nullptr) total_groups += entry->NumGroups();
  }
  size_t groups_done = 0;
  // Everything past this index is unreported; final matches flush per
  // group for a LIVE watcher, while the capture-only wrapper is served
  // by the single interrupt-time flush (the watermark makes it deliver
  // everything confirmed) — an uninterrupted plain query streams and
  // copies nothing.
  size_t reported = 0;
  auto flush_new = [&] {
    const size_t confirmed = final_count();
    if (confirmed > reported) {
      check.Report(std::span<const QueryMatch>(matches.data() + reported,
                                               confirmed - reported),
                   total_groups == 0
                       ? 1.0
                       : static_cast<double>(groups_done) /
                             static_cast<double>(total_groups),
                   /*snapshot=*/false);
      reported = confirmed;
    }
  };

  // Lemma 2's representative verdicts, rep_d <= st/2, one per group.
  std::vector<uint8_t> rep_within;
  for (size_t len : lengths) {
    const GtiEntry* entry = base_->EntryFor(len);
    if (entry == nullptr) continue;
    if (check.ShouldStop()) break;
    ++call.lengths_scanned;
    const double norm = Norm(m, len);
    // Range semantics follow Def. 3's unconstrained DTW: Lemma 2 is
    // proven for it, and a Sakoe-Chiba band could push a guaranteed
    // member's reported distance past st.
    const DtwOptions dtw_options{-1};
    const size_t num_groups = entry->NumGroups();
    rep_within.assign(num_groups, 0);

    // Settles the verdicts of groups [screened, ...) ahead of the group
    // walk, until kDtwBatchLanes representatives need the DTW itself.
    // On equal lengths the diagonal is a warping path, and
    // SquaredEuclidean is, bit for bit, an upper bound of the DP's own
    // sum: when its distance is within st/2, so is the DTW's. Only the
    // verdict is read, so the DTW may abandon past st/2.
    size_t screened = 0;
    const auto screen_reps = [&] {
      StageScope stage(&call, check.probe(), QueryStage::kRepScan);
      LaneQueue reps;
      while (screened < num_groups && !reps.full()) {
        const size_t k = screened++;
        const std::span<const double> rep =
            RepresentativeOf(entry->groups[k], base_->dataset());
        ++call.reps_compared;
        if (m == len &&
            std::sqrt(SquaredEuclidean(query, rep)) / norm <= half_st) {
          rep_within[k] = 1;
          continue;
        }
        ++call.cascade.candidates;
        reps.Push(rep, k);
      }
      reps.Score(query, half_st * kRepAbandonSlack, norm, dtw_options,
                 [&](size_t k, double d) {
                   ++(std::isinf(d) ? call.cascade.dtw_abandoned
                                    : call.cascade.dtw_completed);
                   rep_within[k] = d <= half_st;
                 });
    };

    // Scores the queued members; false once the checker fires.
    const auto score_queued = [&] {
      if (queued.empty()) return true;
      if (check.ShouldStop(queued.size())) return false;
      const size_t first = queued.front_id();
      queued.Score(query, st, norm, dtw_options, [&](size_t at, double d) {
        ++call.members_compared;
        ++call.cascade.candidates;
        ++(std::isinf(d) ? call.cascade.dtw_abandoned
                         : call.cascade.dtw_completed);
        matches[at].distance = d <= st ? d : kNaN;
      });
      drop_placeholders(first);
      return true;
    };

    for (uint32_t k = 0; k < num_groups; ++k) {
      if (check.ShouldStop()) break;
      if (k == screened) screen_reps();
      const LsiEntry& group = entry->groups[k];
      StageScope stage(&call, check.probe(), QueryStage::kMemberScan);
      // Lemma 2 premises, checked against the *stored* member EDs (the
      // members array is sorted, so back() is the group's ED radius):
      // both DTW(query, rep) and every ED(member, rep) must be <= st/2.
      // DTW has no reverse triangle inequality, so no group can be
      // skipped outright; the verdict only chooses between wholesale
      // admission and a per-member scan.
      const double group_radius =
          group.members.empty() ? 0.0 : group.members.back().ed_to_rep;
      if (rep_within[k] && group_radius <= half_st) {
        // Lemma 2: every member of this group is within st of the query.
        call.members_admitted_by_lemma2 += group.members.size();
        const auto admit = [&](size_t i, double d, bool upper_bound) {
          QueryMatch match;
          match.ref = group.members[i].ref;
          match.group_id = k;
          match.distance = d;
          match.distance_is_upper_bound = upper_bound;
          matches.push_back(match);
        };
        if (exact_distances) {
          const auto member_view = [&](size_t i) {
            return group.members[i].ref.View(base_->dataset());
          };
          ScoreInBatches(
              query, group.members.size(), member_view, kInf, norm,
              dtw_options, check, [&](size_t i, double d) {
                // Exact recompute enters the cascade as a straight DTW.
                ++call.cascade.candidates;
                ++call.cascade.dtw_completed;
                admit(i, d, false);
              });
        } else {
          for (size_t i = 0; i < group.members.size(); ++i) {
            admit(i, st, true);
          }
        }
      } else {
        // Individual scan with early abandoning at the range threshold.
        for (const LsiMember& member : group.members) {
          QueryMatch match;
          match.ref = member.ref;
          match.group_id = k;
          match.distance = kNaN;
          queued.Push(member.ref.View(base_->dataset()), matches.size());
          matches.push_back(match);
          if (queued.full() && !score_queued()) break;
        }
      }
      ++groups_done;
      if (check.wants_live_progress()) flush_new();
    }
    // The length's last, partly filled batch.
    StageScope stage(&call, check.probe(), QueryStage::kMemberScan);
    if (!score_queued()) break;
  }
  CommitStats(call, stats);
  if (!check.status().ok()) {
    // Members still queued were never scored: drop their placeholders,
    // then flush everything confirmed and still unreported before the
    // stop; the API layer re-assembles the partial response from these
    // events.
    if (!queued.empty()) {
      drop_placeholders(queued.front_id());
      queued = LaneQueue();
    }
    flush_new();
    return check.status();
  }
  std::sort(matches.begin(), matches.end(), MatchDistanceLess);
  return matches;
}

namespace {

/// Shared progress plumbing of the two Q2 scans: appends each confirmed
/// group to the sink as GroupProgress events (one per visited source
/// group, so frames feel live even when few groups qualify), and
/// flushes whatever is unreported when the scan is interrupted — the
/// API layer re-assembles partial Seasonal responses from exactly these
/// events. Per-group emissions happen only for a LIVE watcher; the
/// capture-only wrapper is served by the interrupt flush alone (the
/// watermark makes that one flush deliver everything confirmed).
class GroupStream {
 public:
  GroupStream(const ExecChecker& check, size_t total_groups)
      : check_(check), total_groups_(total_groups) {}

  void GroupVisited(const std::vector<std::vector<SubsequenceRef>>& result) {
    ++visited_;
    if (check_.wants_live_progress()) Flush(result);
  }

  void Flush(const std::vector<std::vector<SubsequenceRef>>& result) {
    if (!check_.wants_progress() || result.size() <= reported_) return;
    check_.Report(std::span<const std::vector<SubsequenceRef>>(
                      result.data() + reported_, result.size() - reported_),
                  total_groups_ == 0
                      ? 1.0
                      : static_cast<double>(visited_) /
                            static_cast<double>(total_groups_),
                  /*snapshot=*/false);
    reported_ = result.size();
  }

 private:
  const ExecChecker& check_;
  size_t total_groups_;
  size_t visited_ = 0;
  size_t reported_ = 0;
};

}  // namespace

Result<std::vector<std::vector<SubsequenceRef>>>
QueryProcessor::SeasonalSimilarity(uint32_t series_id, size_t length,
                                   const ExecContext* ctx) const {
  ONEX_TRACE_SPAN("q2.seasonal");
  if (series_id >= base_->dataset().size()) {
    return Status::InvalidArgument("series id out of range");
  }
  const GtiEntry* entry = base_->EntryFor(length);
  if (entry == nullptr) {
    return Status::NotFound("length " + std::to_string(length) +
                            " is not in the ONEX base");
  }
  ExecChecker check(ctx);
  std::vector<std::vector<SubsequenceRef>> result;
  GroupStream stream(check, entry->NumGroups());
  for (const LsiEntry& group : entry->groups) {
    if (check.ShouldStop()) {
      stream.Flush(result);
      return check.status();
    }
    std::vector<SubsequenceRef> own;
    for (const LsiMember& member : group.members) {
      if (member.ref.series == series_id) own.push_back(member.ref);
    }
    // Recurring similarity = the series visits this group more than once.
    if (own.size() >= 2) result.push_back(std::move(own));
    stream.GroupVisited(result);
  }
  return result;
}

Result<std::vector<std::vector<SubsequenceRef>>>
QueryProcessor::SimilarGroupsOfLength(size_t length,
                                      const ExecContext* ctx) const {
  ONEX_TRACE_SPAN("q2.similar_groups");
  const GtiEntry* entry = base_->EntryFor(length);
  if (entry == nullptr) {
    return Status::NotFound("length " + std::to_string(length) +
                            " is not in the ONEX base");
  }
  ExecChecker check(ctx);
  std::vector<std::vector<SubsequenceRef>> result;
  GroupStream stream(check, entry->NumGroups());
  for (const LsiEntry& group : entry->groups) {
    if (check.ShouldStop()) {
      stream.Flush(result);
      return check.status();
    }
    if (group.members.size() >= 2) {
      std::vector<SubsequenceRef> refs;
      refs.reserve(group.members.size());
      for (const LsiMember& member : group.members) {
        refs.push_back(member.ref);
      }
      result.push_back(std::move(refs));
    }
    stream.GroupVisited(result);
  }
  return result;
}

}  // namespace onex
