// Copyright 2026 The ONEX Reproduction Authors.
// Zero-dependency tracing core: RAII spans over steady-clock time,
// recorded into lock-free per-thread ring buffers and exported as
// Chrome trace_event JSON (chrome://tracing, Perfetto) via
// WriteChromeTrace.
//
// Cost model: when tracing is disabled (the default), a Span is one
// relaxed atomic load and a branch. Enabled, a span adds two
// steady_clock reads and one store
// into a fixed-size ring. Nothing allocates on the hot path and no
// lock is ever taken while recording — the registry mutex is touched
// only on a thread's FIRST span (ring registration) and during export.
//
// Concurrency: each ring has exactly one writer (its owning thread);
// the head index is published with release stores so an exporter
// reading at quiescence (threads joined, or server stopped) sees every
// event. Exporting while writers are live is safe (no UB on the index;
// slots are read as plain data) but may observe a torn in-flight
// event; callers export after Stop()/join, as onex_server does.
//
// Rings deliberately outlive their threads: a worker that exits before
// export must not take its events with it. Reset() (tests) rewinds
// every ring without invalidating thread-local pointers.

#ifndef ONEX_UTIL_TRACE_H_
#define ONEX_UTIL_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>

namespace onex {
namespace trace {

/// Turns recording on/off globally. Off, spans become a load+branch
/// no-op.
void SetEnabled(bool enabled);
bool Enabled();

/// One completed span. `name` must be a string literal (stored by
/// pointer; the exporter reads it long after the span ends).
struct SpanEvent {
  const char* name = nullptr;
  uint64_t start_ns = 0;     ///< Steady-clock ns since process start.
  uint64_t duration_ns = 0;
  uint32_t tid = 0;          ///< Sequential trace thread id (1-based).
  uint32_t depth = 0;        ///< Nesting depth at entry (0 = top level).
};

/// Per-thread event ring: fixed capacity, single writer, wraparound
/// overwrites the oldest events (pushed() keeps the true total so
/// tests and the exporter can report drops).
inline constexpr uint64_t kRingCapacity = 4096;

/// RAII span. Records [construction, destruction) into the calling
/// thread's ring iff tracing was enabled at construction.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t start_ns_;
  bool active_;
};

#define ONEX_TRACE_CONCAT_INNER(a, b) a##b
#define ONEX_TRACE_CONCAT(a, b) ONEX_TRACE_CONCAT_INNER(a, b)
/// Scoped span covering the rest of the enclosing block.
#define ONEX_TRACE_SPAN(name) \
  ::onex::trace::Span ONEX_TRACE_CONCAT(onex_trace_span_, __LINE__)(name)

/// Point-in-time totals across all rings (tests, --trace-out summary).
struct TraceStats {
  uint64_t threads = 0;   ///< Rings registered (threads that ever span'd).
  uint64_t recorded = 0;  ///< Events currently resident in rings.
  uint64_t pushed = 0;    ///< Events ever pushed (>= recorded on wrap).
  uint64_t dropped = 0;   ///< pushed - recorded: overwritten by wraparound.
};
TraceStats GetStats();

/// Chrome trace_event JSON ("X" complete events, ts/dur in
/// microseconds) for every resident span. Stable output: events sorted
/// by (start, tid). Returns the number of span events written.
uint64_t WriteChromeTrace(std::ostream& out);

/// WriteChromeTrace to a file path. IOError semantics via return:
/// false when the file cannot be opened or the write fails.
bool WriteChromeTraceFile(const std::string& path);

/// Tests: rewind every ring. Not thread-safe against concurrent
/// recording; call at quiescence.
void Reset();

/// Crash-time export: emits the newest `max_per_ring` resident spans of
/// every ring as a JSON array onto `fd`, without the registry mutex —
/// the rings are reached through a lock-free intrusive list built at
/// registration. Async-signal-safe (write(2) only); live writers may
/// tear the newest slot of their ring, nothing worse.
void DumpRingTailsSigSafe(int fd, uint64_t max_per_ring);

}  // namespace trace
}  // namespace onex

#endif  // ONEX_UTIL_TRACE_H_
