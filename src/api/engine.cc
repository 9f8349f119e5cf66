#include "api/engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/serialization.h"
#include "storage/append_sink.h"
#include "util/timer.h"
#include "util/trace.h"

namespace onex {

QueryKind KindOf(const QueryRequest& request) {
  return static_cast<QueryKind>(request.index());
}

const char* ToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBestMatch:       return "BestMatch";
    case QueryKind::kKSimilar:        return "KSimilar";
    case QueryKind::kRangeWithin:     return "RangeWithin";
    case QueryKind::kSeasonal:        return "Seasonal";
    case QueryKind::kRecommend:       return "Recommend";
    case QueryKind::kRefineThreshold: return "RefineThreshold";
  }
  return "Unknown";
}

PayloadShape ShapeOf(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBestMatch:
    case QueryKind::kKSimilar:
    case QueryKind::kRangeWithin:     return PayloadShape::kMatch;
    case QueryKind::kSeasonal:        return PayloadShape::kGroup;
    case QueryKind::kRecommend:       return PayloadShape::kRecommend;
    case QueryKind::kRefineThreshold: return PayloadShape::kRefine;
  }
  return PayloadShape::kMatch;
}

QueryPayload EmptyPayloadOf(QueryKind kind) {
  switch (ShapeOf(kind)) {
    case PayloadShape::kMatch:     return MatchResult{};
    case PayloadShape::kGroup:     return SeasonalResult{};
    case PayloadShape::kRecommend: return RecommendResult{};
    case PayloadShape::kRefine:    return RefineResult{};
  }
  return MatchResult{};
}

Engine::Engine(OnexBase base)
    : version_mutex_(
          std::make_unique<Mutex>(LockRank::kLeaf, "engine.version_mutex")),
      current_(std::make_shared<const OnexBase>(std::move(base))),
      append_mutex_(std::make_unique<Mutex>(LockRank::kEngineAppend,
                                            "engine.append_mutex")) {}

Result<Engine> Engine::Build(Dataset dataset, const OnexOptions& options) {
  auto built = OnexBase::Build(std::move(dataset), options);
  if (!built.ok()) return built.status();
  return Engine(std::move(built).value());
}

Engine Engine::FromBase(OnexBase base) { return Engine(std::move(base)); }

Result<Engine> Engine::Open(const std::string& path) {
  auto loaded = LoadBase(path);
  if (!loaded.ok()) return loaded.status();
  return Engine(std::move(loaded).value());
}

std::shared_ptr<const OnexBase> Engine::Pin() const {
  MutexLock lock(*version_mutex_);
  return current_;
}

std::shared_ptr<const OnexBase> Engine::PinSettled() const {
  MutexLock writer(*append_mutex_);
  return Pin();
}

Status Engine::Save(const std::string& path) const {
  return SaveBase(*Pin(), path);
}

namespace {

inline std::span<const double> AsSpan(const std::vector<double>& values) {
  return std::span<const double>(values.data(), values.size());
}

// The wire parser's rule for query values, applied to every caller: a
// NaN or an infinity poisons every distance it touches, so the answer
// would be wrong rather than empty.
Status CheckQueryValues(const QueryRequest& request) {
  return std::visit(
      [](const auto& req) {
        if constexpr (requires { req.query; }) {
          for (size_t i = 0; i < req.query.size(); ++i) {
            if (!std::isfinite(req.query[i])) {
              return Status::InvalidArgument("query value " +
                                             std::to_string(i) +
                                             " is not finite");
            }
          }
        }
        return Status::OK();
      },
      request);
}

}  // namespace

Result<QueryResponse> Engine::Execute(const QueryRequest& request,
                                      const ExecContext& ctx) const {
  ONEX_TRACE_SPAN("engine.execute");
  if (Status values = CheckQueryValues(request); !values.ok()) return values;
  // The whole query runs on this version; an append publishing a newer
  // one meanwhile neither waits for it nor changes what it sees.
  const std::shared_ptr<const OnexBase> base = Pin();
  const QueryProcessor processor(base.get());
  const Recommender recommender(base.get());
  const ThresholdRefiner refiner(base.get());
  QueryResponse response;
  response.kind = KindOf(request);
  response.payload = EmptyPayloadOf(response.kind);
  // Fast-fail an already-interrupted context (one clock read) so a
  // batch whose token fired returns its remaining responses
  // immediately-partial (empty, right-shaped) instead of burning
  // check_every candidates per request first.
  {
    const Status upfront = ctx.Check();
    if (!upfront.ok()) {
      response.partial = true;
      response.interrupt = upfront.code();
      return response;
    }
  }
  Timer timer;
  Status error = Status::OK();

  // Partial-results accumulator: a wrapping progress sink mirrors every
  // typed event the query emits (and forwards it to the caller's sink),
  // so an interrupted query can still hand back the results it
  // confirmed — matches, groups, and recommendation rows alike. The
  // wrapper is installed even for an inert-looking context: a copy of
  // ctx.cancel may be held by another thread and fire at any moment,
  // and the partial-results contract requires the confirmed set to be
  // ready when it does. progress_capture_only keeps the cost down when
  // nobody is watching live (queries skip periodic snapshot emissions),
  // and bench/query_cancellation's A-leg bounds what remains.
  MatchResult confirmed_matches;
  SeasonalResult confirmed_groups;
  RecommendResult confirmed_rows;
  ExecContext wrapped = ctx;
  // No user sink: the wrapper only captures partials, so queries may
  // skip the periodic snapshot emissions nobody would see.
  wrapped.progress_capture_only = !static_cast<bool>(ctx.progress);
  wrapped.progress = [&](const ProgressEvent& event) {
    std::visit(
        Overloaded{
            [&](const MatchProgress& p) {
              AccumulateProgress(&confirmed_matches.matches, p.matches,
                                 event.snapshot);
            },
            [&](const GroupProgress& p) {
              AccumulateProgress(&confirmed_groups.groups, p.groups,
                                 event.snapshot);
            },
            [&](const RecommendProgress& p) {
              AccumulateProgress(&confirmed_rows.rows, p.rows,
                                 event.snapshot);
            },
        },
        event.payload);
    if (ctx.progress) ctx.progress(event);
  };
  const ExecContext* effective = &wrapped;

  std::visit(
      [&](const auto& req) {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, BestMatchRequest>) {
          auto result =
              req.length == 0
                  ? processor.FindBestMatch(AsSpan(req.query),
                                            &response.stats, effective)
                  : processor.FindBestMatchOfLength(
                        AsSpan(req.query), req.length, &response.stats,
                        effective);
          if (result.ok()) {
            response.payload = MatchResult{{result.value()}};
          } else {
            error = result.status();
          }
        } else if constexpr (std::is_same_v<T, KSimilarRequest>) {
          auto result =
              processor.FindKSimilar(AsSpan(req.query), req.k, req.length,
                                     &response.stats, effective);
          if (result.ok()) {
            response.payload = MatchResult{std::move(result).value()};
          } else {
            error = result.status();
          }
        } else if constexpr (std::is_same_v<T, RangeWithinRequest>) {
          auto result = processor.FindAllWithin(
              AsSpan(req.query), req.st, req.length, req.exact_distances,
              &response.stats, effective);
          if (result.ok()) {
            response.payload = MatchResult{std::move(result).value()};
          } else {
            error = result.status();
          }
        } else if constexpr (std::is_same_v<T, SeasonalRequest>) {
          auto result = req.series_id.has_value()
                            ? processor.SeasonalSimilarity(
                                  *req.series_id, req.length, effective)
                            : processor.SimilarGroupsOfLength(req.length,
                                                              effective);
          if (result.ok()) {
            response.payload = SeasonalResult{std::move(result).value()};
          } else {
            error = result.status();
          }
        } else if constexpr (std::is_same_v<T, RecommendRequest>) {
          if (req.degree.has_value()) {
            error = effective->Check();
            if (!error.ok()) return;
            response.payload = RecommendResult{
                {recommender.Recommend(*req.degree, req.length)}};
          } else {
            auto rows = recommender.AllDegrees(req.length, effective);
            // Fewer than three rows means the context stopped the scan
            // between degrees.
            if (rows.size() < 3) error = effective->Check();
            response.payload = RecommendResult{std::move(rows)};
          }
        } else if constexpr (std::is_same_v<T, RefineThresholdRequest>) {
          StageScope stage(&response.stats, effective->probe,
                           QueryStage::kRefine);
          RefineResult refinements;
          auto summarize = [&](size_t length, const GtiEntry& refined) {
            const GtiEntry* before = base->EntryFor(length);
            refinements.refinements.push_back(RefineSummary{
                length, before != nullptr ? before->NumGroups() : 0,
                refined.NumGroups()});
          };
          if (req.length != 0) {
            auto refined =
                refiner.RefineLength(req.length, req.st_prime, effective);
            if (refined.ok()) {
              summarize(req.length, refined.value());
            } else {
              error = refined.status();
            }
          } else {
            // Length by length (rather than RefineAll) so an
            // interruption keeps the summaries of every length already
            // refined — those become the partial response.
            for (size_t length : base->gti().Lengths()) {
              auto refined =
                  refiner.RefineLength(length, req.st_prime, effective);
              if (!refined.ok()) {
                error = refined.status();
                break;
              }
              summarize(length, refined.value());
            }
          }
          // Complete OR partial: the summaries confirmed so far are the
          // payload either way (refinement has no progress events — the
          // rows accumulate right here).
          response.payload = std::move(refinements);
        }
      },
      request);

  if (!error.ok()) {
    if (!error.interrupted()) return error;
    // Interrupted, not failed: hand back everything confirmed before
    // the stop, flagged partial, in the payload shape the kind always
    // produces. Match / group / recommendation payloads come from the
    // typed progress accumulator (matches re-sorted like the
    // uninterrupted path); refinement summaries accumulated in place
    // above.
    response.partial = true;
    response.interrupt = error.code();
    switch (ShapeOf(response.kind)) {
      case PayloadShape::kMatch:
        std::sort(confirmed_matches.matches.begin(),
                  confirmed_matches.matches.end(), MatchDistanceLess);
        response.payload = std::move(confirmed_matches);
        break;
      case PayloadShape::kGroup:
        response.payload = std::move(confirmed_groups);
        break;
      case PayloadShape::kRecommend:
        response.payload = std::move(confirmed_rows);
        break;
      case PayloadShape::kRefine:
        break;  // Already in response.payload.
    }
  }
  response.latency_seconds = timer.ElapsedSeconds();
  if (wrapped.probe != nullptr) {
    // Final mirror publish: the probe's cascade counters end EXACTLY
    // equal to the response's own stats (the amortized mirror may lag
    // by up to check_every candidates mid-flight). INSPECT-row parity
    // with QueryStats is a test invariant, not best-effort.
    ExecChecker final_mirror(&wrapped);
    final_mirror.ObserveCascade(&response.stats.cascade);
    final_mirror.MirrorCascade();
  }
  return response;
}

Status Engine::AppendSeries(TimeSeries series, size_t* index) {
  std::vector<TimeSeries> batch;
  batch.push_back(std::move(series));
  return AppendBatch(std::move(batch), index);
}

Status Engine::AppendBatch(std::vector<TimeSeries> batch,
                           size_t* first_index) {
  // Validate before logging: a WAL record that cannot be applied would
  // poison every future replay.
  for (const TimeSeries& series : batch) {
    if (series.empty()) {
      return Status::InvalidArgument("cannot append an empty series");
    }
    Status values = CheckSeriesValues(series);
    if (!values.ok()) return values;
  }
  MutexLock writer(*append_mutex_);
  std::shared_ptr<const OnexBase> pinned;
  storage::AppendSink* sink = nullptr;
  {
    MutexLock lock(*version_mutex_);
    pinned = current_;
    sink = append_sink_;
  }
  if (sink != nullptr) {
    const Status logged = sink->LogAppend(batch);
    if (!logged.ok()) return logged;
  }
  // One maintenance pass for the whole batch, on a private copy: derived
  // structures are rebuilt once per affected length, and queries keep
  // answering from `pinned` until the copy is published.
  auto next = std::make_shared<OnexBase>(*pinned);
  const size_t first = next->dataset().size();
  const Status applied = next->AppendBatch(std::move(batch));
  if (!applied.ok()) return applied;
  {
    // `pinned` keeps the old version alive past the lock, so it is
    // never freed under it.
    MutexLock lock(*version_mutex_);
    current_ = std::move(next);
  }
  if (first_index != nullptr) *first_index = first;
  return Status::OK();
}

void Engine::AttachAppendSink(storage::AppendSink* sink) {
  // A detach waits for any in-flight append that is about to log
  // through the old sink (the DurableEngine destructor detaches right
  // before closing the WAL).
  MutexLock writer(*append_mutex_);
  MutexLock lock(*version_mutex_);
  append_sink_ = sink;
}

bool Engine::durable() const {
  MutexLock lock(*version_mutex_);
  return append_sink_ != nullptr;
}

BaseStats Engine::base_stats() const { return Pin()->stats(); }

size_t Engine::num_series() const { return Pin()->dataset().size(); }

}  // namespace onex
