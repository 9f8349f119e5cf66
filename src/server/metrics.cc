#include "server/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace onex {
namespace server {

double LatencyHistogram::UpperBound(size_t i) {
  // 10 buckets per decade: bound(i) = 1µs * 10^(i/10). Precomputed once
  // — Record runs on the per-request hot path under the metrics mutex,
  // so the lookup must be a load, not a pow().
  static const std::array<double, kBuckets> bounds = [] {
    std::array<double, kBuckets> b{};
    for (size_t j = 0; j < kBuckets; ++j) {
      b[j] = kFirstUpperBound * std::pow(10.0, static_cast<double>(j) / 10.0);
    }
    return b;
  }();
  return bounds[i];
}

void LatencyHistogram::Record(double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;
  size_t bucket = 0;
  while (bucket + 1 < kBuckets && seconds > UpperBound(bucket)) ++bucket;
  ++buckets_[bucket];
  ++count_;
  total_seconds_ += seconds;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Fractional rank of the quantile across the sample count; the
  // 1-based ceil picks the winning bucket (p=100 hits the last occupied
  // one, p=0 the first) and the fractional remainder interpolates
  // linearly inside it — returning the upper edge unconditionally
  // biased every estimate high by up to the full bucket width.
  const double target = p / 100.0 * static_cast<double>(count_);
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(target)));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    seen += buckets_[i];
    if (seen >= rank) {
      const double lower = i == 0 ? 0.0 : UpperBound(i - 1);
      const double upper = UpperBound(i);
      const uint64_t before = seen - buckets_[i];
      double frac =
          (target - static_cast<double>(before)) /
          static_cast<double>(buckets_[i]);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      return lower + frac * (upper - lower);
    }
  }
  return UpperBound(kBuckets - 1);
}

void ServerMetrics::RecordQuery(QueryKind kind, double seconds, bool ok) {
  MutexLock lock(mutex_);
  KindMetrics& m = kinds_[static_cast<size_t>(kind)];
  ++m.requests;
  if (!ok) ++m.errors;
  m.latency.Record(seconds);
}

void ServerMetrics::RecordQueryBreakdown(double queue_wait_seconds,
                                         double exec_seconds,
                                         const CascadeStats& cascade) {
  MutexLock lock(mutex_);
  queue_wait_.Record(queue_wait_seconds);
  exec_.Record(exec_seconds);
  cascade_.Add(cascade);
}

void ServerMetrics::RecordSlowQuery() {
  MutexLock lock(mutex_);
  ++slow_queries_;
}

void ServerMetrics::RecordConnection() {
  MutexLock lock(mutex_);
  ++connections_;
}

void ServerMetrics::RecordOverloaded() {
  MutexLock lock(mutex_);
  ++overloaded_;
}

void ServerMetrics::RecordBadRequest() {
  MutexLock lock(mutex_);
  ++bad_requests_;
}

void ServerMetrics::RecordAppend(bool ok) {
  MutexLock lock(mutex_);
  ++appends_;
  if (!ok) ++append_errors_;
}

void ServerMetrics::RecordFlush(bool ok) {
  MutexLock lock(mutex_);
  ++flushes_;
  if (!ok) ++flush_errors_;
}

void ServerMetrics::RecordCancelled() {
  MutexLock lock(mutex_);
  ++cancelled_;
}

void ServerMetrics::RecordDeadlineExceeded() {
  MutexLock lock(mutex_);
  ++deadline_exceeded_;
}

void ServerMetrics::RecordPartialResult() {
  MutexLock lock(mutex_);
  ++partial_results_;
}

void ServerMetrics::RecordDeadlineMiss() {
  MutexLock lock(mutex_);
  ++deadline_miss_;
}

void ServerMetrics::RecordWatchdogStall() {
  MutexLock lock(mutex_);
  ++watchdog_stalls_;
}

uint64_t ServerMetrics::requests() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const KindMetrics& m : kinds_) total += m.requests;
  return total;
}

uint64_t ServerMetrics::overloaded() const {
  MutexLock lock(mutex_);
  return overloaded_;
}

uint64_t ServerMetrics::cancelled() const {
  MutexLock lock(mutex_);
  return cancelled_;
}

uint64_t ServerMetrics::deadline_exceeded() const {
  MutexLock lock(mutex_);
  return deadline_exceeded_;
}

uint64_t ServerMetrics::partial_results() const {
  MutexLock lock(mutex_);
  return partial_results_;
}

uint64_t ServerMetrics::deadline_miss() const {
  MutexLock lock(mutex_);
  return deadline_miss_;
}

uint64_t ServerMetrics::watchdog_stalls() const {
  MutexLock lock(mutex_);
  return watchdog_stalls_;
}

std::string ServerMetrics::Render() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const KindMetrics& m : kinds_) total += m.requests;

  char line[320];
  std::snprintf(line, sizeof(line),
                "server connections=%llu requests=%llu overloaded=%llu "
                "bad_requests=%llu appends=%llu append_errors=%llu "
                "flushes=%llu flush_errors=%llu cancelled=%llu "
                "deadline_exceeded=%llu partial_results=%llu "
                "deadline_miss=%llu\n",
                static_cast<unsigned long long>(connections_),
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(overloaded_),
                static_cast<unsigned long long>(bad_requests_),
                static_cast<unsigned long long>(appends_),
                static_cast<unsigned long long>(append_errors_),
                static_cast<unsigned long long>(flushes_),
                static_cast<unsigned long long>(flush_errors_),
                static_cast<unsigned long long>(cancelled_),
                static_cast<unsigned long long>(deadline_exceeded_),
                static_cast<unsigned long long>(partial_results_),
                static_cast<unsigned long long>(deadline_miss_));
  std::string out = line;

  for (size_t i = 0; i < kNumKinds; ++i) {
    const KindMetrics& m = kinds_[i];
    if (m.requests == 0) continue;
    const double mean_us =
        m.latency.total_seconds() / static_cast<double>(m.latency.count()) *
        1e6;
    std::snprintf(line, sizeof(line),
                  "kind name=%s requests=%llu errors=%llu p50_us=%.0f "
                  "p95_us=%.0f p99_us=%.0f p999_us=%.0f mean_us=%.0f\n",
                  ToString(static_cast<QueryKind>(i)),
                  static_cast<unsigned long long>(m.requests),
                  static_cast<unsigned long long>(m.errors),
                  m.latency.Percentile(50.0) * 1e6,
                  m.latency.Percentile(95.0) * 1e6,
                  m.latency.Percentile(99.0) * 1e6,
                  m.latency.Percentile(99.9) * 1e6, mean_us);
    out += line;
  }
  return out;
}

void Preamble(std::string* out, const char* name, const char* type,
              const char* help) {
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

void SimpleCounter(std::string* out, const char* name, const char* help,
                   uint64_t value) {
  Preamble(out, name, "counter", help);
  char line[128];
  std::snprintf(line, sizeof(line), "%s %llu\n", name,
                static_cast<unsigned long long>(value));
  *out += line;
}

void GaugeLine(std::string* out, const char* name, const char* help,
               double value) {
  Preamble(out, name, "gauge", help);
  char line[128];
  std::snprintf(line, sizeof(line), "%s %.9g\n", name, value);
  *out += line;
}

void HistogramFamily(std::string* out, const char* name, const char* help,
                     const LatencyHistogram& histogram) {
  Preamble(out, name, "histogram", help);
  char line[160];
  uint64_t cumulative = 0;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const uint64_t in_bucket = histogram.bucket_count(i);
    if (in_bucket == 0) continue;
    cumulative += in_bucket;
    std::snprintf(line, sizeof(line), "%s_bucket{le=\"%.9g\"} %llu\n", name,
                  LatencyHistogram::UpperBound(i),
                  static_cast<unsigned long long>(cumulative));
    *out += line;
  }
  std::snprintf(line, sizeof(line), "%s_bucket{le=\"+Inf\"} %llu\n", name,
                static_cast<unsigned long long>(histogram.count()));
  *out += line;
  std::snprintf(line, sizeof(line), "%s_sum %.9g\n", name,
                histogram.total_seconds());
  *out += line;
  std::snprintf(line, sizeof(line), "%s_count %llu\n", name,
                static_cast<unsigned long long>(histogram.count()));
  *out += line;
}

void ProcessFamilies(std::string* out, const ProcessStats& process) {
  GaugeLine(out, "onex_process_uptime_seconds",
            "Seconds since process start.", process.uptime_seconds);
  GaugeLine(out, "onex_process_resident_memory_bytes",
            "Resident set size in bytes (0 = unreadable).",
            static_cast<double>(process.rss_bytes));
  GaugeLine(out, "onex_process_open_fds",
            "Open file descriptors (-1 = unreadable).",
            static_cast<double>(process.open_fds));
  GaugeLine(out, "onex_process_threads",
            "Kernel threads in the process (-1 = unreadable).",
            static_cast<double>(process.threads));
  char line[128];
  Preamble(out, "onex_process_cpu_user_seconds_total", "counter",
           "User-mode CPU time consumed (getrusage).");
  std::snprintf(line, sizeof(line),
                "onex_process_cpu_user_seconds_total %.9g\n",
                process.cpu_user_seconds);
  *out += line;
  Preamble(out, "onex_process_cpu_sys_seconds_total", "counter",
           "Kernel-mode CPU time consumed (getrusage).");
  std::snprintf(line, sizeof(line),
                "onex_process_cpu_sys_seconds_total %.9g\n",
                process.cpu_sys_seconds);
  *out += line;
}

std::string ServerMetrics::RenderPrometheus(
    const GaugeSnapshot& gauges) const {
  MutexLock lock(mutex_);
  std::string out;
  out.reserve(4096);
  char line[256];

  // ---- request counters and latency summaries, labelled by kind.
  Preamble(&out, "onex_requests_total", "counter",
           "Answered queries by kind (errors included).");
  for (size_t i = 0; i < kNumKinds; ++i) {
    if (kinds_[i].requests == 0) continue;
    std::snprintf(line, sizeof(line),
                  "onex_requests_total{kind=\"%s\"} %llu\n",
                  ToString(static_cast<QueryKind>(i)),
                  static_cast<unsigned long long>(kinds_[i].requests));
    out += line;
  }
  Preamble(&out, "onex_request_errors_total", "counter",
           "Queries answered with an application error, by kind.");
  for (size_t i = 0; i < kNumKinds; ++i) {
    if (kinds_[i].requests == 0) continue;
    std::snprintf(line, sizeof(line),
                  "onex_request_errors_total{kind=\"%s\"} %llu\n",
                  ToString(static_cast<QueryKind>(i)),
                  static_cast<unsigned long long>(kinds_[i].errors));
    out += line;
  }
  Preamble(&out, "onex_query_latency_seconds", "summary",
           "End-to-end (queue wait + execution) latency by kind.");
  constexpr double kQuantiles[] = {50.0, 95.0, 99.0, 99.9};
  constexpr const char* kQuantileLabels[] = {"0.5", "0.95", "0.99", "0.999"};
  for (size_t i = 0; i < kNumKinds; ++i) {
    const KindMetrics& m = kinds_[i];
    if (m.requests == 0) continue;
    const char* kind = ToString(static_cast<QueryKind>(i));
    for (size_t q = 0; q < 4; ++q) {
      std::snprintf(line, sizeof(line),
                    "onex_query_latency_seconds{kind=\"%s\",quantile=\"%s\"}"
                    " %.9g\n",
                    kind, kQuantileLabels[q],
                    m.latency.Percentile(kQuantiles[q]));
      out += line;
    }
    std::snprintf(line, sizeof(line),
                  "onex_query_latency_seconds_sum{kind=\"%s\"} %.9g\n", kind,
                  m.latency.total_seconds());
    out += line;
    std::snprintf(line, sizeof(line),
                  "onex_query_latency_seconds_count{kind=\"%s\"} %llu\n",
                  kind, static_cast<unsigned long long>(m.latency.count()));
    out += line;
  }

  // ---- the queue-wait vs exec-time split.
  HistogramFamily(&out, "onex_queue_wait_seconds",
                  "Time between job admission and worker pickup.",
                  queue_wait_);
  HistogramFamily(&out, "onex_exec_seconds",
                  "Engine execution time (queue wait excluded).", exec_);

  // ---- pruning-cascade totals (the paper's pruning ratio, live:
  // 1 - (dtw_abandoned + dtw_completed) / candidates).
  SimpleCounter(&out, "onex_cascade_candidates_total",
                "Candidates entering the LB_Kim/LB_Keogh/DTW cascade.",
                cascade_.candidates);
  SimpleCounter(&out, "onex_cascade_pruned_kim_total",
                "Candidates dropped by LB_Kim.", cascade_.pruned_kim);
  SimpleCounter(&out, "onex_cascade_pruned_keogh_total",
                "Candidates dropped by LB_Keogh.", cascade_.pruned_keogh);
  SimpleCounter(&out, "onex_cascade_dtw_abandoned_total",
                "DTW evaluations abandoned early.", cascade_.dtw_abandoned);
  SimpleCounter(&out, "onex_cascade_dtw_completed_total",
                "DTW evaluations run to completion.",
                cascade_.dtw_completed);

  // ---- server-wide event counters.
  SimpleCounter(&out, "onex_connections_total", "Accepted connections.",
                connections_);
  SimpleCounter(&out, "onex_overloaded_total",
                "Requests shed by admission control.", overloaded_);
  SimpleCounter(&out, "onex_bad_requests_total",
                "Lines that failed to parse or had no dataset bound.",
                bad_requests_);
  SimpleCounter(&out, "onex_appends_total", "APPEND mutations attempted.",
                appends_);
  SimpleCounter(&out, "onex_append_errors_total", "APPEND mutations failed.",
                append_errors_);
  SimpleCounter(&out, "onex_flushes_total", "FLUSH requests attempted.",
                flushes_);
  SimpleCounter(&out, "onex_flush_errors_total", "FLUSH requests failed.",
                flush_errors_);
  SimpleCounter(&out, "onex_cancelled_total",
                "Queries aborted by their cancel token.", cancelled_);
  SimpleCounter(&out, "onex_deadline_exceeded_total",
                "Queries aborted by their deadline budget.",
                deadline_exceeded_);
  SimpleCounter(&out, "onex_partial_results_total",
                "Replies carrying partial (interrupted) results.",
                partial_results_);
  SimpleCounter(&out, "onex_deadline_miss_total",
                "Deadline-carrying jobs that completed late.",
                deadline_miss_);
  SimpleCounter(&out, "onex_slow_queries_total",
                "Queries crossing the --slow-query-ms threshold.",
                slow_queries_);
  SimpleCounter(&out, "onex_watchdog_stalls_total",
                "Jobs the stall watchdog ever flagged.", watchdog_stalls_);

  // ---- gauges (assembled by the caller; see GaugeSnapshot).
  GaugeLine(&out, "onex_queue_depth", "Jobs admitted, not yet picked up.",
            static_cast<double>(gauges.queue_depth));
  GaugeLine(&out, "onex_workers_busy", "Workers executing a job right now.",
            static_cast<double>(gauges.workers_busy));
  GaugeLine(&out, "onex_workers_total", "Worker pool size.",
            static_cast<double>(gauges.workers_total));
  GaugeLine(&out, "onex_catalog_resident_engines",
            "Engines resident in memory.",
            static_cast<double>(gauges.catalog_resident));
  GaugeLine(&out, "onex_catalog_dirty_engines",
            "Resident engines with unflushed in-memory state.",
            static_cast<double>(gauges.catalog_dirty));
  GaugeLine(&out, "onex_wal_bytes", "Live WAL bytes since last checkpoint.",
            static_cast<double>(gauges.storage.wal_bytes));
  GaugeLine(&out, "onex_wal_records",
            "Live WAL records since last checkpoint.",
            static_cast<double>(gauges.storage.wal_records));
  GaugeLine(&out, "onex_checkpoint_age_seconds",
            "Seconds since the last completed checkpoint (-1 = never).",
            gauges.storage.checkpoint_age_seconds);
  GaugeLine(&out, "onex_checkpoint_last_duration_seconds",
            "Duration of the last completed checkpoint.",
            gauges.storage.checkpoint_last_duration_seconds);
  GaugeLine(&out, "onex_stalled_workers",
            "Workers currently flagged by the stall watchdog.",
            static_cast<double>(gauges.stalled_workers));
  GaugeLine(&out, "onex_wal_write_failed",
            "1 when any durable engine's last WAL write failed.",
            gauges.storage.wal_write_failed ? 1.0 : 0.0);

  // ---- v7 replication gauges (stable family set on every node).
  GaugeLine(&out, "onex_checkpoint_delta_bytes",
            "Bytes of the most recent incremental-checkpoint delta.",
            static_cast<double>(gauges.storage.last_delta_bytes));
  GaugeLine(&out, "onex_delta_chain_length",
            "Longest live snapshot delta chain across durable engines.",
            static_cast<double>(gauges.storage.delta_chain_length));
  GaugeLine(&out, "onex_delta_gc_reclaimed_bytes",
            "Bytes of retired checkpoint artifacts unlinked by delta GC.",
            static_cast<double>(gauges.storage.gc_reclaimed_bytes));
  GaugeLine(&out, "onex_delta_gc_pending_artifacts",
            "Retired checkpoint artifacts still inside the GC grace "
            "period.",
            static_cast<double>(gauges.storage.gc_pending_artifacts));
  GaugeLine(&out, "onex_replica_lag_seconds",
            "Seconds since the last successful leader sync (-1 = not "
            "following).",
            gauges.replica.lag_seconds);
  GaugeLine(&out, "onex_replica_last_applied_seq",
            "Total series this replica has applied (0 on leaders).",
            static_cast<double>(gauges.replica.last_applied_seq));

  // ---- process-level resource gauges (sampled at render time).
  ProcessFamilies(&out, gauges.process);
  return out;
}

}  // namespace server
}  // namespace onex
