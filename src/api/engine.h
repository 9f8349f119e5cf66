// Copyright 2026 The ONEX Reproduction Authors.
// The ONEX session facade: one typed request/response surface over all
// three of the paper's query classes (Sec. 5) — Q1 similarity
// (best-match / kSim / range), Q2 seasonal similarity, and Q3 threshold
// recommendation — plus Algorithm 2.C threshold refinement and the base
// maintenance of Algorithm 1. This is the object an interactive front
// end (the paper's web UI, our onex_cli) drives for a whole exploration
// session, and the unit a server shards or batches over.
//
// Concurrency contract: the engine holds one immutable OnexBase per
// version. Execute pins the current version (a shared_ptr copy under a
// leaf mutex) and answers from it with no lock held, so any number of
// queries run concurrently and none of them ever waits on an append.
// Appends are serialized among themselves: each copies the current
// version, applies the batch to the copy and publishes it. A query
// answers from the version it pinned, before or after an append, never
// mid-maintenance. A version stays alive while a query pins it, so at
// most one version per running query plus the current one is resident.

#ifndef ONEX_API_ENGINE_H_
#define ONEX_API_ENGINE_H_

#include <cstdint>
#include <memory>
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

/// Owns the current version of a built OnexBase and answers typed
/// QueryRequests against it. Movable, not copyable. See the file
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

  /// Persists the current version (serialization.h format).
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
  /// request (InvalidArgument), as it is on the wire. Thread-safe: the
  /// call pins the current version and holds no lock while it runs, so
  /// a caller parked in its progress sink holds off no append.
  Result<QueryResponse> Execute(const QueryRequest& request,
                                const ExecContext& ctx) const;

  /// Base maintenance (Algorithm 1 append): a batch of one. On success
  /// `*index` (when non-null) receives the new series' index, taken
  /// while appends are serialized, so concurrent appenders see distinct
  /// values.
  Status AppendSeries(TimeSeries series, size_t* index = nullptr);

  /// Appends a batch as one new version. Appends are serialized: in
  /// durable mode (an AppendSink is attached) the whole batch is logged
  /// with a single group commit (one fsync) first, and a sink failure
  /// aborts the append unapplied, so an acknowledged append is always
  /// recoverable. The batch is then applied to a copy of the current
  /// version in ONE maintenance pass (OnexBase::AppendBatch: derived
  /// state rebuilt once per affected length) and the copy is published.
  /// Queries keep running on the version they pinned meanwhile.
  /// All-or-nothing: an invalid series anywhere rejects the batch
  /// unapplied. On success `*first_index` (when non-null) receives the
  /// index of the batch's first series.
  Status AppendBatch(std::vector<TimeSeries> batch,
                     size_t* first_index = nullptr);

  // ---- durable mode (storage/storage.h attaches itself here).

  /// Attaches (or, with nullptr, detaches) the write-ahead sink. The
  /// sink must outlive every subsequent append; DurableEngine owns both
  /// this engine and the sink, so its lifetime covers the engine's.
  /// Waits for an append in flight, so a detach never races one — but
  /// attach before publishing the engine anyway: an append admitted
  /// before the attach is not logged.
  void AttachAppendSink(storage::AppendSink* sink);

  /// True when an AppendSink is attached (appends are write-ahead
  /// logged).
  bool durable() const;

  /// The current version, pinned: it stays alive and unchanged for as
  /// long as the caller holds the pointer, whatever appends publish
  /// meanwhile.
  std::shared_ptr<const OnexBase> Pin() const;

  /// Pin() once an append in flight has published, so the version holds
  /// every append the sink has logged. Waits for that append and holds
  /// further appends off for the pointer copy; queries never wait. The
  /// storage checkpointer serializes one of these, so a checkpoint
  /// triggered by an append's log record also covers that append.
  std::shared_ptr<const OnexBase> PinSettled() const;

  /// Accessors over the current version (safe to call concurrently
  /// with appends).
  BaseStats base_stats() const;
  size_t num_series() const;

  /// Direct views of the current version for single-threaded tooling
  /// (serialization, plotting, the CLI's `show`). The reference is
  /// valid until the next append publishes a new version; a caller that
  /// may race an append holds Pin() instead.
  const OnexBase& base() const { return *Pin(); }
  const Dataset& dataset() const { return base().dataset(); }
  const OnexOptions& options() const { return base().options(); }

 private:
  explicit Engine(OnexBase base);

  /// Held only to copy or replace `current_`, never across a query or
  /// an append (leaf rank). Heap-held so the engine stays movable.
  mutable std::unique_ptr<Mutex> version_mutex_;
  std::shared_ptr<const OnexBase> current_ GUARDED_BY(*version_mutex_);
  /// Write-ahead sink of the optional durable mode; nullptr = memory
  /// only. Owned by the attaching storage manager, not the engine.
  /// Replaced with append_mutex_ held too, so it is fixed for the
  /// length of an append.
  storage::AppendSink* append_sink_ GUARDED_BY(*version_mutex_) = nullptr;
  /// Serializes writers: log to the sink, copy, apply, publish.
  mutable std::unique_ptr<Mutex> append_mutex_;
};

}  // namespace onex

#endif  // ONEX_API_ENGINE_H_
