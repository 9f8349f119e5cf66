// Copyright 2026 The ONEX Reproduction Authors.
// The ONEX session facade: one typed request/response surface over all
// three of the paper's query classes (Sec. 5) — Q1 similarity
// (best-match / kSim / range), Q2 seasonal similarity, and Q3 threshold
// recommendation — plus Algorithm 2.C threshold refinement and the base
// maintenance of Algorithm 1. This is the object an interactive front
// end (the paper's web UI, our onex_cli) drives for a whole exploration
// session, and the unit a server shards or batches over.
//
// Concurrency contract: Execute is safe to call from any number of
// threads concurrently (it takes a reader lock and uses per-call
// QueryStats); AppendSeries takes the writer lock and may run
// concurrently with queries — queries observe the base either before or
// after the append, never mid-maintenance.

#ifndef ONEX_API_ENGINE_H_
#define ONEX_API_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/exec_context.h"
#include "core/onex_base.h"
#include "core/query_processor.h"
#include "core/recommender.h"
#include "core/threshold_refiner.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace onex {

namespace storage {
class AppendSink;  // storage/append_sink.h — the optional durable mode.
}  // namespace storage

// ------------------------------------------------------------- requests

/// Q1, `SELECT BEST MATCH`: best match of exactly `length`, or across
/// every constructed length when `length` is 0 (Match = Any).
struct BestMatchRequest {
  std::vector<double> query;
  size_t length = 0;
};

/// Q1, `SELECT k MOST SIMILAR`: the k nearest members of the
/// best-matching group, sorted by distance.
struct KSimilarRequest {
  std::vector<double> query;
  size_t k = 1;
  size_t length = 0;  ///< 0 = any length.
};

/// Q1 range form, `WHERE Sim <= st`: every sequence within `st`.
/// Without `exact_distances`, Lemma-2 fast-path matches carry st as an
/// upper bound and are flagged distance_is_upper_bound.
struct RangeWithinRequest {
  std::vector<double> query;
  double st = 0.2;
  size_t length = 0;  ///< 0 = all lengths.
  bool exact_distances = false;
};

/// Q2 seasonal similarity: recurring same-length patterns within one
/// series (`series_id` set), or all multi-member groups of the length
/// across the dataset (`series_id` empty, the data-driven mode).
struct SeasonalRequest {
  std::optional<uint32_t> series_id;
  size_t length = 0;
};

/// Q3 threshold recommendation: the ST interval of one similarity
/// degree, or all three rows when `degree` is empty (simDegree = NULL).
struct RecommendRequest {
  std::optional<SimilarityDegree> degree;
  size_t length = 0;  ///< 0 = global markers (Match = Any).
};

/// Algorithm 2.C: report how the grouping changes under threshold
/// `st_prime` — for one length, or every constructed length when 0.
struct RefineThresholdRequest {
  double st_prime = 0.2;
  size_t length = 0;
};

/// The tagged request union an interactive session sends the engine.
using QueryRequest =
    std::variant<BestMatchRequest, KSimilarRequest, RangeWithinRequest,
                 SeasonalRequest, RecommendRequest, RefineThresholdRequest>;

/// Discriminator mirroring QueryRequest's alternatives, for logging and
/// response routing.
enum class QueryKind {
  kBestMatch,
  kKSimilar,
  kRangeWithin,
  kSeasonal,
  kRecommend,
  kRefineThreshold,
};

QueryKind KindOf(const QueryRequest& request);
const char* ToString(QueryKind kind);

// ------------------------------------------------------------ responses

/// How one length's grouping changed under a RefineThreshold request.
struct RefineSummary {
  size_t length = 0;
  size_t groups_before = 0;
  size_t groups_after = 0;
};

/// Q1-shaped payload (BestMatch / KSimilar / RangeWithin): ranked
/// matches, best first.
struct MatchResult {
  std::vector<QueryMatch> matches;
};

/// Q2-shaped payload (Seasonal): one SubsequenceRef vector per
/// recurring-similarity group.
struct SeasonalResult {
  std::vector<std::vector<SubsequenceRef>> groups;
};

/// Q3-shaped payload (Recommend): one row per similarity degree.
struct RecommendResult {
  std::vector<Recommendation> rows;
};

/// RefineThreshold payload: one summary per refined length.
struct RefineResult {
  std::vector<RefineSummary> refinements;
};

/// The typed result union. A response carries exactly the alternative
/// its request kind produces (see ShapeOf) — there are no parallel
/// payload vectors to guess between, and a visitor that misses an
/// alternative fails to compile.
using QueryPayload =
    std::variant<MatchResult, SeasonalResult, RecommendResult, RefineResult>;

/// Discriminator mirroring QueryPayload's alternatives (indices match).
enum class PayloadShape { kMatch, kGroup, kRecommend, kRefine };

/// The payload alternative a request kind's response carries:
/// BestMatch/KSimilar/RangeWithin -> kMatch, Seasonal -> kGroup,
/// Recommend -> kRecommend, RefineThreshold -> kRefine.
PayloadShape ShapeOf(QueryKind kind);

/// A default-constructed (empty) payload of the right alternative for
/// `kind` — what an immediately-interrupted response carries.
QueryPayload EmptyPayloadOf(QueryKind kind);

/// Uniform answer envelope around the typed payload. The payload's
/// alternative always matches ShapeOf(kind). `stats` and
/// `latency_seconds` are always set.
struct QueryResponse {
  QueryKind kind = QueryKind::kBestMatch;
  /// The typed result (alternative == ShapeOf(kind)). Consume it with
  /// Visit for exhaustive handling, or the shape-checked accessors
  /// below when the caller knows what it asked for.
  QueryPayload payload;
  /// Work counters of this call only (per-call, never accumulated).
  QueryStats stats;
  /// Wall-clock seconds spent answering, measured inside the engine.
  double latency_seconds = 0.0;
  /// True when the ExecContext interrupted the query (deadline passed
  /// or CancelToken fired) before it finished: the payload holds only
  /// the results confirmed up to that point, and `interrupt` says which
  /// code stopped it (kCancelled / kDeadlineExceeded). Non-interrupted
  /// responses always have partial == false, interrupt == kOk.
  bool partial = false;
  Status::Code interrupt = Status::Code::kOk;

  /// Visits the payload with one callable per alternative (any order;
  /// generic lambdas may cover several). Missing an alternative is a
  /// compile error — THE way to consume a response whose kind is not
  /// statically known:
  ///   response.Visit(
  ///       [](const onex::MatchResult& m) { ... },
  ///       [](const onex::SeasonalResult& s) { ... },
  ///       [](const onex::RecommendResult& r) { ... },
  ///       [](const onex::RefineResult& r) { ... });
  template <class... Fs>
  decltype(auto) Visit(Fs&&... fs) const {
    return std::visit(Overloaded{std::forward<Fs>(fs)...}, payload);
  }

  /// Shape-checked accessors (std::get semantics: throw
  /// std::bad_variant_access when the response carries another shape —
  /// a shape confusion is a caller bug, never silently empty).
  const std::vector<QueryMatch>& matches() const {
    return std::get<MatchResult>(payload).matches;
  }
  const std::vector<std::vector<SubsequenceRef>>& groups() const {
    return std::get<SeasonalResult>(payload).groups;
  }
  const std::vector<Recommendation>& recommendations() const {
    return std::get<RecommendResult>(payload).rows;
  }
  const std::vector<RefineSummary>& refinements() const {
    return std::get<RefineResult>(payload).refinements;
  }
};

// --------------------------------------------------------------- engine

/// Owns a built OnexBase and the lazily-created query components, and
/// answers typed QueryRequests. Movable, not copyable. See the file
/// comment for the concurrency contract.
class Engine {
 public:
  /// Builds the ONEX base over `dataset` (Algorithm 1) and wraps it.
  /// The dataset is expected to be normalized already (Sec. 6.1).
  static Result<Engine> Build(Dataset dataset, const OnexOptions& options);

  /// Wraps an already-built base (e.g. deserialized via LoadBase or
  /// refined via ThresholdRefiner::RefinedBase).
  static Engine FromBase(OnexBase base);

  /// Reads a base persisted with Save()/SaveBase() and wraps it.
  static Result<Engine> Open(const std::string& path);

  /// Persists the underlying base (serialization.h format).
  Status Save(const std::string& path) const;

  /// Answers one request under interactive control: `ctx` carries the
  /// deadline, the cooperative CancelToken, and the optional progress
  /// sink (pass `ExecContext{}` for a plain blocking call). When the
  /// context interrupts the query mid-flight the call still succeeds —
  /// the response carries every result confirmed so far in a payload of
  /// the right shape, flagged `partial` with `interrupt` naming the
  /// code — so an interactive front end can always render SOMETHING.
  /// Genuine failures (bad request, absent length) return an error
  /// Result as before; a query value that is NaN or infinite is a bad
  /// request (InvalidArgument), as it is on the wire. Thread-safe:
  /// concurrent callers share the reader lock. (The context-free
  /// Execute(request) shim of the previous release is gone — pass a
  /// context explicitly.)
  Result<QueryResponse> Execute(const QueryRequest& request,
                                const ExecContext& ctx) const;

  /// Base maintenance (Algorithm 1 append). Takes the writer lock:
  /// blocks until in-flight queries drain, then updates the base. In
  /// durable mode (an AppendSink is attached) the series is logged to
  /// the sink first; a sink failure aborts the append unapplied, so an
  /// acknowledged append is always recoverable. On success `*index`
  /// (when non-null) receives the new series' index — captured under
  /// the writer lock, so concurrent appenders see distinct values.
  Status AppendSeries(TimeSeries series, size_t* index = nullptr);

  /// Appends a batch under ONE writer-lock acquisition; in durable mode
  /// the whole batch is logged with a single group commit (one fsync)
  /// before any of it is applied, and the in-memory apply is ONE
  /// maintenance pass (OnexBase::AppendBatch: derived state rebuilt
  /// once per affected length, not once per series). All-or-nothing:
  /// an invalid series anywhere rejects the batch unapplied.
  Status AppendBatch(std::vector<TimeSeries> batch);

  // ---- durable mode (storage/storage.h attaches itself here).

  /// Attaches (or, with nullptr, detaches) the write-ahead sink. The
  /// sink must outlive every subsequent append; DurableEngine owns both
  /// this engine and the sink, so its lifetime covers the engine's.
  /// Takes the writer lock (appends in flight drain first), so it is
  /// safe even against a concurrent appender — but attach before
  /// publishing the engine anyway: an append admitted before the
  /// attach is not logged.
  void AttachAppendSink(storage::AppendSink* sink);

  /// True when an AppendSink is attached (appends are write-ahead
  /// logged).
  bool durable() const {
    ReaderMutexLock lock(*rw_mutex_);
    return append_sink_ != nullptr;
  }

  /// Runs `fn` on the base with the WRITER lock held: no queries, no
  /// appends in flight. The storage checkpointer uses this to snapshot
  /// the base and rotate the WAL as one atomic step (an append can
  /// never land between the two).
  Status Exclusive(
      const std::function<Status(const OnexBase& base)>& fn) const;

  /// Snapshot accessors (reader lock; cheap copies, safe to call
  /// concurrently with AppendSeries).
  BaseStats base_stats() const;
  size_t num_series() const;

  /// Direct views for single-threaded tooling (serialization, plotting,
  /// the CLI's `show`). NOT synchronized against AppendSeries — do not
  /// hold these across maintenance calls from another thread. The
  /// analysis opt-out below is exactly that documented contract: the
  /// caller promises no concurrent writer exists.
  const OnexBase& base() const NO_THREAD_SAFETY_ANALYSIS { return *base_; }
  const Dataset& dataset() const NO_THREAD_SAFETY_ANALYSIS {
    return base_->dataset();
  }
  const OnexOptions& options() const NO_THREAD_SAFETY_ANALYSIS {
    return base_->options();
  }

  /// The engine's reader/writer lock, exposed FOR ANNOTATIONS ONLY:
  /// storage::DurableEngine's WAL state is guarded by this engine's
  /// lock (the AppendSink contract), and writing that down requires a
  /// nameable capability. Do not lock it directly — use the public
  /// Execute/Append/Exclusive surface.
  SharedMutex& mu() const RETURN_CAPABILITY(*rw_mutex_) { return *rw_mutex_; }

 private:
  explicit Engine(OnexBase base);

  /// Dispatch body; the caller holds the reader lock.
  Result<QueryResponse> ExecuteLocked(const QueryRequest& request,
                                      const ExecContext& ctx) const
      REQUIRES_SHARED(*rw_mutex_);

  /// Query components, created on first use via std::call_once (cheap
  /// atomic check on the hot path; no lock contention between
  /// concurrent readers). Each holds a pointer to *base_, whose
  /// address is stable across Engine moves. Heap-allocated as one
  /// block because once_flag is neither movable nor copyable.
  struct LazyComponents {
    std::once_flag processor_once;
    std::once_flag recommender_once;
    std::once_flag refiner_once;
    std::unique_ptr<QueryProcessor> processor;
    std::unique_ptr<Recommender> recommender;
    std::unique_ptr<ThresholdRefiner> refiner;
  };

  const QueryProcessor& processor() const;
  const Recommender& recommender() const;
  const ThresholdRefiner& refiner() const;

  /// Reader/writer lock of the concurrency contract (heap-allocated so
  /// the engine stays movable). Declared before the state it guards so
  /// annotations below can name it.
  mutable std::unique_ptr<SharedMutex> rw_mutex_;
  /// The base itself: the pointer is set once at construction (stable
  /// across moves), the POINTEE mutates under the writer lock —
  /// PT_GUARDED_BY is exactly that split.
  std::unique_ptr<OnexBase> base_ PT_GUARDED_BY(*rw_mutex_);
  /// Write-ahead sink of the optional durable mode; nullptr = memory
  /// only. Owned by the attaching storage manager, not the engine.
  storage::AppendSink* append_sink_ GUARDED_BY(*rw_mutex_) = nullptr;
  mutable std::unique_ptr<LazyComponents> lazy_;
};

}  // namespace onex

#endif  // ONEX_API_ENGINE_H_
