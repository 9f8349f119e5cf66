// Copyright 2026 The ONEX Reproduction Authors.
// Serving-layer observability: per-QueryKind request counters and
// latency histograms (p50/p95/p99), plus connection / shed / error
// totals. The server records one sample per wire request (end-to-end:
// queue wait + execution) and renders the whole picture through the
// STATS protocol verb, which is how operators — and the throughput
// bench — watch the serving layer without attaching a profiler.
//
// The histogram is log-bucketed (multiplicative steps from 1µs to
// ~100s), so percentiles are approximate: each reported value is
// linearly interpolated within the bucket containing that quantile, so
// the worst case is half a bucket's width (~13% relative; the old
// upper-edge rule biased every estimate high by up to the full ~26%
// bucket resolution). Counters are exact.
//
// Two render surfaces share the same registry: the line-oriented STATS
// payload (Render) and Prometheus text exposition format
// (RenderPrometheus), which additionally takes a point-in-time gauge
// snapshot the server assembles — the metrics mutex is a leaf and must
// never reach into the queue, catalog, or storage locks itself.

#ifndef ONEX_SERVER_METRICS_H_
#define ONEX_SERVER_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <variant>

#include "api/engine.h"
#include "distance/cascade.h"
#include "storage/storage.h"
#include "util/mutex.h"
#include "util/process_stats.h"
#include "util/thread_annotations.h"

namespace onex {
namespace server {

/// Log-bucketed latency histogram. Not thread-safe on its own;
/// ServerMetrics serializes access.
class LatencyHistogram {
 public:
  /// Buckets span [1µs, ~100s) in multiplicative steps of 10^(1/10)
  /// (~1.26x): 10 buckets per decade over 8 decades. Public so the
  /// Prometheus renderer and the grammar tests can walk the buckets.
  static constexpr size_t kBuckets = 81;
  static constexpr double kFirstUpperBound = 1e-6;

  /// Upper bound of bucket `i` in seconds.
  static double UpperBound(size_t i);

  void Record(double seconds);

  /// Approximate percentile in seconds, p in [0, 100]; 0 when empty.
  /// Linearly interpolates within the bucket holding the p-quantile
  /// (the bucket's lower edge is the previous bucket's upper bound, 0
  /// for the first), so a single-sample histogram reports mid-bucket at
  /// p=50 and the exact upper edge only at p=100.
  double Percentile(double p) const;

  uint64_t count() const { return count_; }
  double total_seconds() const { return total_seconds_; }
  /// Samples in bucket `i` (not cumulative).
  uint64_t bucket_count(size_t i) const { return buckets_[i]; }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double total_seconds_ = 0.0;
};

/// What a follower's sync loop reports into the serving layer: the
/// HEALTH replica_lag gate and the onex_replica_* gauges read this
/// through ServerOptions::replica_status (unset on leaders).
struct ReplicaStatus {
  /// Seconds since the last successful sync round against the leader;
  /// negative = never synced yet (a follower that has not bootstrapped
  /// is not ready).
  double lag_seconds = -1.0;
  /// Total series applied locally (the replica's replication position).
  uint64_t last_applied_seq = 0;
};

/// Point-in-time gauges rendered by RenderPrometheus. Assembled by the
/// SERVER at render time — queue depth under the queue mutex, catalog
/// and WAL figures from the catalog — never by ServerMetrics itself:
/// the metrics mutex is a leaf and cannot reach into those locks. The
/// defaults render as a node that has no durable engine, follows no
/// leader and could not sample its process.
struct GaugeSnapshot {
  uint64_t queue_depth = 0;       ///< Jobs admitted, not yet picked up.
  uint64_t workers_busy = 0;      ///< Workers executing a job right now.
  uint64_t workers_total = 0;     ///< Worker pool size.
  uint64_t catalog_resident = 0;  ///< Engines resident in memory.
  uint64_t catalog_dirty = 0;     ///< Resident engines with unflushed state.
  /// Workers the stall watchdog currently flags (running past
  /// max(3x deadline budget, --stall-ms)). Cleared as stalled jobs
  /// finish; the cumulative count is onex_watchdog_stalls_total.
  uint64_t stalled_workers = 0;
  /// Durable-engine facts merged across the catalog (Catalog::
  /// DurableStats): live WAL size, checkpoint age and duration, the
  /// sticky WAL-write failure, the newest delta and longest chain, and
  /// delta-GC progress.
  storage::StorageStats storage;
  /// Follower position (lag -1 = not following / never synced).
  ReplicaStatus replica;
  /// Process-level resource gauges, sampled by the server at render
  /// time (one /proc read per METRICS call).
  ProcessStats process;
};

/// Thread-safe metrics registry for one Server instance.
class ServerMetrics {
 public:
  /// One answered query of `kind`: end-to-end latency and whether the
  /// engine reported an error (errors still count one latency sample).
  void RecordQuery(QueryKind kind, double seconds, bool ok);

  /// Observability split recorded alongside RecordQuery (one lock, one
  /// call per answered query): time spent queued before a worker picked
  /// the job up vs time executing, plus the query's pruning-cascade
  /// counters rolled into the server-wide totals.
  void RecordQueryBreakdown(double queue_wait_seconds, double exec_seconds,
                            const CascadeStats& cascade);

  /// A query whose end-to-end latency crossed --slow-query-ms.
  void RecordSlowQuery();

  void RecordConnection();
  void RecordOverloaded();
  /// A line that failed to parse or arrived with no dataset bound.
  void RecordBadRequest();
  /// One APPEND / FLUSH mutation (errors still count the attempt).
  void RecordAppend(bool ok);
  void RecordFlush(bool ok);

  // ---- v3 interactive-control counters.

  /// A query aborted by its CancelToken (client CANCEL or disconnect).
  void RecordCancelled();
  /// A query aborted by its DEADLINE_MS budget — whether it fired
  /// mid-execution or the queue sweep shed it before a worker ran it.
  void RecordDeadlineExceeded();
  /// A reply that carried partial (interrupted) results.
  void RecordPartialResult();
  /// A deadline-carrying job that COMPLETED past its deadline — queue
  /// sheds and late finishers alike. The observable the EDF worker
  /// dispatch exists to push down (deadline_exceeded counts aborts;
  /// this counts lateness).
  void RecordDeadlineMiss();

  /// The stall watchdog flagged a worker (once per stalled job). The
  /// CURRENT stalled count is a gauge in GaugeSnapshot; this is the
  /// monotonic lifetime total (onex_watchdog_stalls_total).
  void RecordWatchdogStall();

  /// Renders the STATS reply payload lines (no OK header, no "."):
  ///   server connections=3 requests=120 overloaded=2 bad_requests=1
  ///          appends=4 append_errors=0 flushes=1 flush_errors=0
  ///          cancelled=2 deadline_exceeded=1 partial_results=3
  ///          deadline_miss=1
  ///   kind name=BestMatch requests=40 errors=0 p50_us=210 p95_us=800
  ///        p99_us=1500 p999_us=1800 mean_us=260
  /// Kinds with zero requests are omitted.
  std::string Render() const;

  /// Prometheus text exposition format: every counter above, the
  /// per-kind latency summaries (quantile labels + _sum/_count), the
  /// queue-wait vs exec-time histograms (cumulative _bucket{le=...}
  /// lines for non-empty buckets plus le="+Inf"), the cascade totals,
  /// and the caller-assembled gauges. scripts/check_metrics.sh lints
  /// exactly this output.
  std::string RenderPrometheus(const GaugeSnapshot& gauges) const;

  uint64_t requests() const;
  uint64_t overloaded() const;
  uint64_t cancelled() const;
  uint64_t deadline_exceeded() const;
  uint64_t partial_results() const;
  uint64_t deadline_miss() const;
  uint64_t watchdog_stalls() const;

 private:
  struct KindMetrics {
    uint64_t requests = 0;
    uint64_t errors = 0;
    LatencyHistogram latency;
  };

  static constexpr size_t kNumKinds = std::variant_size_v<QueryRequest>;
  static_assert(kNumKinds ==
                    static_cast<size_t>(QueryKind::kRefineThreshold) + 1,
                "QueryKind and QueryRequest diverged; RecordQuery indexes "
                "kinds_ by QueryKind");

  /// Leaf rank: metrics are recorded from everywhere (workers, session
  /// threads, the queue sweep) and call nothing that locks.
  mutable Mutex mutex_{LockRank::kMetrics, "metrics.mutex"};
  std::array<KindMetrics, kNumKinds> kinds_ GUARDED_BY(mutex_);
  uint64_t connections_ GUARDED_BY(mutex_) = 0;
  uint64_t overloaded_ GUARDED_BY(mutex_) = 0;
  uint64_t bad_requests_ GUARDED_BY(mutex_) = 0;
  uint64_t appends_ GUARDED_BY(mutex_) = 0;
  uint64_t append_errors_ GUARDED_BY(mutex_) = 0;
  uint64_t flushes_ GUARDED_BY(mutex_) = 0;
  uint64_t flush_errors_ GUARDED_BY(mutex_) = 0;
  uint64_t cancelled_ GUARDED_BY(mutex_) = 0;
  uint64_t deadline_exceeded_ GUARDED_BY(mutex_) = 0;
  uint64_t partial_results_ GUARDED_BY(mutex_) = 0;
  uint64_t deadline_miss_ GUARDED_BY(mutex_) = 0;
  uint64_t slow_queries_ GUARDED_BY(mutex_) = 0;
  uint64_t watchdog_stalls_ GUARDED_BY(mutex_) = 0;
  /// End-to-end latency split: queued-before-pickup vs executing.
  LatencyHistogram queue_wait_ GUARDED_BY(mutex_);
  LatencyHistogram exec_ GUARDED_BY(mutex_);
  /// Server-lifetime pruning-cascade totals (per-query counters from
  /// QueryStats roll up here).
  CascadeStats cascade_ GUARDED_BY(mutex_);
};

// ---- Prometheus text-exposition helpers. The node's and the router's
// renderers both write through these, so the two exposition surfaces
// cannot drift apart in format (scripts/check_metrics.sh lints both).

/// `# HELP` / `# TYPE` preamble for one metric family.
void Preamble(std::string* out, const char* name, const char* type,
              const char* help);
/// A counter family with one unlabelled sample.
void SimpleCounter(std::string* out, const char* name, const char* help,
                   uint64_t value);
/// A gauge family with one unlabelled sample.
void GaugeLine(std::string* out, const char* name, const char* help,
               double value);
/// One histogram family: cumulative _bucket lines for non-empty buckets
/// (a sparse-but-monotonic series is valid exposition format), the
/// mandatory le="+Inf" bucket, then _sum and _count.
void HistogramFamily(std::string* out, const char* name, const char* help,
                     const LatencyHistogram& histogram);
/// The onex_process_* families every process kind exposes, under the
/// same names, so one dashboard row template fits every hop.
void ProcessFamilies(std::string* out, const ProcessStats& process);

}  // namespace server
}  // namespace onex

#endif  // ONEX_SERVER_METRICS_H_
