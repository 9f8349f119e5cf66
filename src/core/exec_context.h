// Copyright 2026 The ONEX Reproduction Authors.
// Interactive query control: every Engine::Execute carries an
// ExecContext bundling a deadline, a cooperative CancelToken, and an
// optional progress sink that receives typed partial-result events
// while the query is still running. Events are SHAPED like the final
// payload: match-shaped queries stream QueryMatch batches, Seasonal
// queries stream confirmed groups, Recommend queries stream rows — so
// an interactive front end renders partial results of every query class
// the same way it renders the final ones. The query components
// (QueryProcessor, Recommender, ThresholdRefiner) test the context
// inside their inner loops through an amortized ExecChecker — one
// atomic load / clock read every `check_every` candidates, so an
// uncancelled query pays well under the interactive-latency noise floor
// for the ability to be aborted mid-flight.
//
// Interruption is COOPERATIVE: Cancel() or an expired deadline never
// tears a thread down; the running query notices at its next check,
// stops descending, and returns what it has. The API layer flags such a
// response `partial` and records which code interrupted it
// (Status::Code::kCancelled / kDeadlineExceeded).

#ifndef ONEX_CORE_EXEC_CONTEXT_H_
#define ONEX_CORE_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "core/inflight.h"
#include "core/query_match.h"
#include "core/recommendation.h"
#include "dataset/subsequence.h"
#include "distance/cascade.h"
#include "util/status.h"

namespace onex {

/// Overload-set builder for variant visitation:
///   Visit(Overloaded{[](const A&) {...}, [](const B&) {...}}, v)
/// Used by QueryResponse::Visit and the progress plumbing; a visitor
/// missing an alternative fails to COMPILE, which is the exhaustiveness
/// guarantee the typed payloads exist for.
template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <class... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

/// Shared cancellation flag. Copies alias one flag, so a client thread
/// can hold a token while a worker runs the query: Cancel() from any
/// copy is observed by every other. Thread-safe; cancelling is
/// idempotent and cannot be undone (one token = one query's lifetime).
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() const { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// ------------------------------------------------- progress events

/// Q1-shaped progress: a batch of confirmed matches.
struct MatchProgress {
  std::span<const QueryMatch> matches;
};

/// Q2-shaped progress: confirmed similar groups (one ref vector each).
struct GroupProgress {
  std::span<const std::vector<SubsequenceRef>> groups;
};

/// Q3-shaped progress: confirmed recommendation rows.
struct RecommendProgress {
  std::span<const Recommendation> rows;
};

/// The typed payload of one progress delivery. One query emits events
/// of exactly ONE alternative — the one matching its response payload.
using ProgressPayload =
    std::variant<MatchProgress, GroupProgress, RecommendProgress>;

/// One progress delivery: a typed batch of confirmed partial results
/// plus a rough work-fraction estimate. `snapshot` distinguishes the
/// two delivery modes: best-match-style queries send their CURRENT best
/// set (replacing earlier events), scan-style queries (ranges, seasonal
/// groups, recommendation rows) send only results confirmed SINCE the
/// last event (append). The spans point into the running query's
/// buffers and are valid only for the duration of the callback — copy
/// out anything kept.
struct ProgressEvent {
  ProgressPayload payload;
  /// Fraction of the candidate space already searched, in [0, 1]. An
  /// estimate (groups visited / groups total), not a latency promise.
  double work_fraction = 0.0;
  /// True: the payload replaces everything delivered before. False: it
  /// extends it.
  bool snapshot = false;

  /// Shape-checked accessors (std::get semantics: throws
  /// std::bad_variant_access when the event carries another shape).
  std::span<const QueryMatch> matches() const {
    return std::get<MatchProgress>(payload).matches;
  }
  std::span<const std::vector<SubsequenceRef>> groups() const {
    return std::get<GroupProgress>(payload).groups;
  }
  std::span<const Recommendation> rows() const {
    return std::get<RecommendProgress>(payload).rows;
  }
};

using ProgressSink = std::function<void(const ProgressEvent&)>;

/// THE accumulation rule for progress deliveries — snapshot replaces,
/// append extends — shared by the engine's partial-results capture and
/// the server's PART-frame batching so the two can never diverge.
template <typename T>
void AccumulateProgress(std::vector<T>* into, std::span<const T> batch,
                        bool snapshot) {
  if (snapshot) {
    into->assign(batch.begin(), batch.end());
  } else {
    into->insert(into->end(), batch.begin(), batch.end());
  }
}

/// Per-call execution context. Cheap to copy (a time point, a shared
/// token, a std::function). A default-constructed context never
/// interrupts, so `Execute(request, ExecContext{})` is the plain
/// blocking call.
struct ExecContext {
  /// Absolute deadline; unset = unbounded.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Cooperative abort switch; keep a copy to Cancel() from elsewhere.
  CancelToken cancel;
  /// Optional sink for typed partial results (see ProgressEvent).
  /// Called from the query thread — keep it fast, and do not call back
  /// into the engine from inside it.
  ProgressSink progress;
  /// Inner loops consult the token/clock every `check_every` candidate
  /// comparisons. Smaller = faster abort, more overhead; the default
  /// keeps uncancelled overhead <2% on per-window DTW work while
  /// bounding abort latency to a handful of DTW invocations.
  size_t check_every = 32;
  /// Set by the API layer when `progress` exists only to capture
  /// partial results (the caller attached no sink of their own):
  /// queries then skip the PERIODIC snapshot emissions (e.g. the
  /// running top-k, which costs a copy + sort per emission) and only
  /// flush on completion/interrupt — which is all capture needs.
  bool progress_capture_only = false;
  /// Mid-flight visibility slot (INSPECT / watchdog / crash dump), or
  /// nullptr to run unobserved. Not owned; the claimer (the server's
  /// worker loop) releases it after Execute returns. Stage transitions
  /// and the cascade mirror are published through it with relaxed
  /// stores — see core/inflight.h for the consistency model.
  InflightProbe* probe = nullptr;

  /// Deadline `budget` from now.
  static ExecContext WithDeadlineAfter(std::chrono::milliseconds budget) {
    ExecContext ctx;
    ctx.deadline = std::chrono::steady_clock::now() + budget;
    return ctx;
  }

  /// Immediate (non-amortized) check: OK, DeadlineExceeded, or
  /// Cancelled. The deadline is tested FIRST: when both fired, the
  /// deadline fired on its own schedule regardless of the token (the
  /// server's overload shedder cancels over-deadline queries, and the
  /// caller of such a query must see DEADLINE_EXCEEDED, not a cancel it
  /// never sent).
  Status Check() const {
    if (deadline.has_value() &&
        std::chrono::steady_clock::now() >= *deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    if (cancel.cancelled()) return Status::Cancelled("query cancelled");
    return Status::OK();
  }
};

/// Amortized interruption probe for inner loops. Constructed once per
/// query call, passed by reference down the loop nest; ShouldStop() is
/// a counter bump on all but every `check_every`-th call. Once it
/// returns true it stays true (status() says why), so a loop nest can
/// unwind level by level without re-checking.
class ExecChecker {
 public:
  /// `ctx` may be nullptr (the context-free fast path: ShouldStop is a
  /// single null test). The context must outlive the checker.
  explicit ExecChecker(const ExecContext* ctx)
      : ctx_(ctx),
        period_(ctx != nullptr && ctx->check_every > 0 ? ctx->check_every
                                                       : 1) {}

  /// True when the query must stop now; status() carries the code.
  /// `candidates` is the work the caller is about to do (a batched scan
  /// checks once per batch), so the context is consulted about every
  /// `check_every` candidates however they are grouped.
  bool ShouldStop(size_t candidates = 1) {
    if (ctx_ == nullptr) return false;
    if (!status_.ok()) return true;
    count_ += candidates;
    if (count_ < period_) return false;
    count_ = 0;
    MirrorCascade();  // Amortized: rides the same slow path as Check().
    status_ = ctx_->Check();
    return !status_.ok();
  }

  /// Why the last ShouldStop() returned true (OK until then).
  const Status& status() const { return status_; }

  const ExecContext* context() const { return ctx_; }

  /// Emits one typed progress event if a sink is attached. The three
  /// Report overloads are the shape-specific entry points the query
  /// components call.
  void Emit(ProgressPayload payload, double work_fraction,
            bool snapshot) const {
    if (ctx_ == nullptr || !ctx_->progress) return;
    ctx_->progress(ProgressEvent{payload, work_fraction, snapshot});
  }

  void Report(std::span<const QueryMatch> matches, double work_fraction,
              bool snapshot) const {
    Emit(MatchProgress{matches}, work_fraction, snapshot);
  }

  void Report(std::span<const std::vector<SubsequenceRef>> groups,
              double work_fraction, bool snapshot) const {
    Emit(GroupProgress{groups}, work_fraction, snapshot);
  }

  void Report(std::span<const Recommendation> rows, double work_fraction,
              bool snapshot) const {
    Emit(RecommendProgress{rows}, work_fraction, snapshot);
  }

  bool wants_progress() const {
    return ctx_ != nullptr && static_cast<bool>(ctx_->progress);
  }

  /// True when someone is actually WATCHING: periodic (non-final)
  /// snapshot emissions are only worth their cost then.
  bool wants_live_progress() const {
    return wants_progress() && !ctx_->progress_capture_only;
  }

  /// The context's in-flight probe, or nullptr (no visibility asked).
  InflightProbe* probe() const {
    return ctx_ != nullptr ? ctx_->probe : nullptr;
  }

  /// Binds the per-call cascade accumulator whose counters ShouldStop's
  /// slow path mirrors into the probe. The accumulator must outlive the
  /// checker (it's the QueryStats local of the same call).
  void ObserveCascade(const CascadeStats* cascade) {
    observed_cascade_ = cascade;
  }

  /// Copies the observed cascade counters into the probe (relaxed
  /// stores; single writer). Public so the API layer can force a final
  /// publish when the call completes — INSPECT row parity with the
  /// response's own stats is a test invariant.
  void MirrorCascade() const {
    InflightProbe* p = probe();
    if (p == nullptr || observed_cascade_ == nullptr) return;
    p->candidates.store(observed_cascade_->candidates,
                        std::memory_order_relaxed);
    p->pruned_kim.store(observed_cascade_->pruned_kim,
                        std::memory_order_relaxed);
    p->pruned_keogh.store(observed_cascade_->pruned_keogh,
                          std::memory_order_relaxed);
    p->dtw_abandoned.store(observed_cascade_->dtw_abandoned,
                           std::memory_order_relaxed);
    p->dtw_completed.store(observed_cascade_->dtw_completed,
                           std::memory_order_relaxed);
  }

 private:
  const ExecContext* ctx_;
  size_t period_;
  size_t count_ = 0;
  Status status_;
  const CascadeStats* observed_cascade_ = nullptr;
};

}  // namespace onex

#endif  // ONEX_CORE_EXEC_CONTEXT_H_
