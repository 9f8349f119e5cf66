// Copyright 2026 The ONEX Reproduction Authors.
// The ONEX TCP server: many concurrent exploration sessions over many
// datasets, speaking the newline protocol of server/protocol.h. This is
// the serving layer the ROADMAP's scaling PRs (sharding, caching,
// replication) plug into; the unit it multiplexes is the onex::Engine
// session facade, resolved per session through the server/catalog.h
// registry.
//
// Architecture (one Server instance): the wire side — listener, accept
// thread, one session thread per connection, the line loop, ping/help/
// quit, cancel and the per-session in-flight table — is the shared
// server/session_host.h. What the node adds behind it:
//
//   session thread ── query lines become jobs ──► bounded job queue
//   (use/append/flush and the                     (sheds load with an
//    introspection verbs answered                  explicit OVERLOADED
//    inline, so they work even                     reply when full)
//    when every worker is wedged)                          │
//                                                          ▼
//                                         fixed worker pool: num_workers
//                                         threads run Engine::Execute,
//                                         the only CPU-heavy work
//
// Each query is ONE Job from admission to reply: the queue holds it,
// then the worker running it keeps it on its stack behind a RunningJob
// slot that the shedder, the watchdog and INSPECT read. The worker that
// finishes the job records its outcome and writes its reply (and any
// PART progress frames) through the job's one completion. UNTAGGED
// (v2) queries: the session thread waits for that completion before
// reading on, so replies stay strictly ordered per connection. TAGGED
// (v3, `id=<n>`) queries multiplex: the session thread enters the job
// in the in-flight table (its cancel action trips the job's
// CancelToken), submits it and returns to reading; the completion
// removes the entry. Workers dispatch EARLIEST-DEADLINE-FIRST: the
// queued job with the nearest DEADLINE_MS runs next, and deadline-less
// jobs rank by admission time plus a fixed implicit budget — an aging
// rank, so they yield briefly to urgent work but can never be starved.
// This cuts deadline-miss rates under load — watch the `deadline_miss`
// STATS counter. The worker pool caps CPU concurrency at `num_workers`
// no matter how many sessions are connected, and the queue bound
// converts overload into shedding: first, queued jobs whose
// DEADLINE_MS already passed are completed with DEADLINE_EXCEEDED;
// then the oldest over-deadline RUNNING query is cancelled to free its
// worker (it stays busy until the worker notices); only when neither
// applies does the new query get `ERR OVERLOADED`.
//
// Shutdown: Stop() runs the host's sequence with the node's drain —
// the watchdog stops, then the job queue drains (every submitted job
// still gets its completion run) and the workers exit. Safe to call
// from any thread; the destructor calls it.

#ifndef ONEX_SERVER_SERVER_H_
#define ONEX_SERVER_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "core/inflight.h"
#include "server/catalog.h"
#include "server/metrics.h"
#include "server/session_host.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace onex {
namespace server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable via Server::port().
  uint16_t port = 0;
  /// Worker threads executing queries (CPU concurrency cap).
  size_t num_workers = 4;
  /// Max queries WAITING for a worker (in-flight ones excluded) before
  /// new queries are shed with ERR OVERLOADED. Clamped to >= 1.
  size_t max_queue = 64;
  /// When set, every session starts bound to this dataset (as if the
  /// client's first line were "use <default_dataset>").
  std::string default_dataset;
  /// Queries whose total latency (queue wait + execution) meets or
  /// exceeds this many milliseconds are written to the slow-query log —
  /// one structured JSON line each (kind, dataset, stage breakdown,
  /// pruning ratio, disposition) through util/logging's JSON sink.
  /// 0 disables the log.
  uint64_t slow_query_ms = 0;

  /// Stall watchdog: a job executing longer than
  /// max(3 x its deadline budget, stall_ms) is flagged as stalled —
  /// one WARN log line with its INSPECT row, the
  /// onex_watchdog_stalls_total counter, and a failed HEALTH workers
  /// check until the job finishes. 0 disables the watchdog thread
  /// entirely. Deadline-less jobs use stall_ms alone.
  uint64_t stall_ms = 10000;
  /// How often the watchdog scans the running set. Tests shrink this.
  uint64_t watchdog_period_ms = 1000;
  /// HEALTH readiness fails when the newest completed checkpoint across
  /// durable engines is older than this many seconds (0 = no budget;
  /// a server that has never checkpointed is not penalized).
  double checkpoint_age_budget_s = 0.0;
  /// Follower mode (v7): set by onex_replica so HEALTH grows a
  /// replica_lag readiness gate and METRICS report the replica gauges.
  /// Unset on leaders — the gate is absent, not vacuously green.
  std::function<ReplicaStatus()> replica_status;
  /// HEALTH replica_lag fails once the reported lag exceeds this many
  /// seconds (0 = lag never fails readiness; a follower that has NEVER
  /// synced still fails — serving an unbootstrapped replica is wrong
  /// at any budget).
  double replica_lag_budget_s = 30.0;

  /// Test instrumentation (leave unset in production): called by a
  /// worker right before executing a job, and after a job is enqueued
  /// (with the new queue depth). Both may be called concurrently.
  std::function<void()> on_job_start;
  std::function<void(size_t)> on_enqueue;
};

class Server {
 public:
  /// Binds, listens, and spins up the worker pool and accept thread.
  /// IOError if the socket cannot be bound.
  static Result<std::unique_ptr<Server>> Start(
      ServerOptions options, std::shared_ptr<Catalog> catalog);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops accepting, disconnects sessions, drains the queue, joins all
  /// threads. Idempotent.
  void Stop();

  /// The bound TCP port (resolves port 0 to the kernel's choice).
  uint16_t port() const { return host_.port(); }

  const ServerMetrics& metrics() const { return metrics_; }
  const Catalog& catalog() const { return *catalog_; }

 private:
  /// The node's half of one session: its dataset binding. Defined in
  /// server.cc; hands every request to HandleRequest.
  struct Connection;

  /// One admitted query, from admission to reply: the queue holds it
  /// while it waits, then the worker that runs it keeps it on its stack
  /// and points its RunningJob slot at it. The session's resolved
  /// engine travels with the job, so a catalog eviction mid-flight
  /// cannot invalidate it.
  struct Job {
    QueryRequest request;
    std::shared_ptr<const Engine> engine;
    /// Deadline, cancel token (the session's cancel action trips it)
    /// and, for `progress=1` queries, the PART-frame sink. The worker
    /// sets its in-flight probe right before Execute.
    ExecContext ctx;
    /// EDF dispatch rank, set at admission: the real deadline, or
    /// admission time + kDeadlineLessRankBudget for deadline-less jobs
    /// — an implicit urgency that AGES, so a deadline-less job is
    /// overtaken for at most the budget and can never be starved by a
    /// stream of deadline-carrying arrivals (each of those ranks by a
    /// deadline in the future, which an aged rank always beats).
    std::chrono::steady_clock::time_point rank;
    /// Admission order, for "oldest over-deadline" selection.
    uint64_t seq = 0;
    /// Admission instant; the dequeuing worker turns it into the
    /// query's queue_wait stage timing (and the queue-wait histogram).
    std::chrono::steady_clock::time_point admitted;
    /// Introspection identity (v6): the wire id (0 = untagged), the
    /// owning session's fd and the dataset, so INSPECT and the watchdog
    /// can name the job.
    uint64_t wire_id = 0;
    int session_fd = -1;
    std::string dataset;
    /// Completion: records the outcome, writes the reply and releases
    /// the wire id (an untagged session thread waits for it to run).
    /// Runs on the worker that executed the job, or inline in Submit
    /// for queue-swept sheds.
    std::function<void(Result<QueryResponse>)> done;
  };

  /// What one worker is executing right now (guarded by queue_mutex_),
  /// so an overloaded Submit can cancel the oldest over-deadline query,
  /// the stall watchdog can flag jobs running past their budget, and
  /// INSPECT / HEALTH / METRICS can count busy workers.
  struct RunningJob {
    /// The worker's job, or nullptr when idle. The job, and the
    /// registry probe its context points at, live until the worker
    /// clears the slot under queue_mutex_.
    const Job* job = nullptr;
    /// When the worker picked the job up (stall clock starts here, not
    /// at admission — queue wait is the queue's fault, not the job's).
    std::chrono::steady_clock::time_point started;
    /// Watchdog latch: each stalled job is flagged (and counted) once.
    bool stalled = false;
    /// Shed latch: the overload shedder already cancelled this job to
    /// admit one more, so it buys no second admission. The job still
    /// runs (and counts as busy) until its worker notices the cancel.
    bool shed = false;
  };

  /// Queue depth and busy / stalled worker counts: the one scan behind
  /// INSPECT, HEALTH and METRICS.
  struct WorkerGauges {
    size_t queue_depth = 0;
    uint64_t busy = 0;
    uint64_t stalled = 0;
  };
  WorkerGauges ScanWorkers() const REQUIRES(queue_mutex_);

  Server(ServerOptions options, std::shared_ptr<Catalog> catalog);

  /// Answers one request the host leaves to the node: `use`, the
  /// introspection and replication verbs, append/flush, and queries.
  void HandleRequest(Connection* connection, const Request& request,
                     const RequestAttrs& attrs);
  void WorkerLoop(size_t index);
  /// Periodically flags running jobs past their stall budget (see
  /// ServerOptions::stall_ms). Started only when stall_ms > 0.
  void WatchdogLoop();

  /// Assembles the INSPECT reply: live query rows from the in-flight
  /// registry, queued jobs, worker/session/catalog snapshots. Inline on
  /// the session thread — it must answer even when workers are wedged.
  std::string RenderInspect();
  /// Assembles the HEALTH reply: liveness (trivially 1 when answering)
  /// and readiness with one `check` row per gate.
  std::string RenderHealth();
  /// Assembles the FETCH reply — text header, CRC-framed binary chunks,
  /// "." terminator — as ONE buffer, so the session write mutex keeps a
  /// worker's tagged reply from interleaving mid-artifact. Validates
  /// that `artifact` names one of `dataset`'s files (base / delta /
  /// WAL) before touching the disk.
  std::string RenderFetch(const std::string& dataset,
                          const std::string& artifact);

  /// Enqueues a job unless the queue is at capacity or the server is
  /// stopping; false means "shed this request". Before shedding, the
  /// deadline sweep runs (see the file comment).
  bool Submit(Job job);

  /// Folds one query outcome into the metrics: per-kind latency, the
  /// v3 cancelled / deadline-exceeded / partial-result counters, and
  /// (successful queries) the queue-wait/exec histograms + cascade
  /// counters. Queries at or past `slow_query_ms` additionally emit one
  /// structured slow-query JSON log line, tagged with `dataset`.
  void RecordOutcome(QueryKind kind, const std::string& dataset,
                     double seconds, const Result<QueryResponse>& result);

  ServerOptions options_;
  std::shared_ptr<Catalog> catalog_;
  ServerMetrics metrics_;

  Mutex queue_mutex_{LockRank::kServerQueue, "server.queue_mutex"};
  CondVar queue_cv_;
  std::deque<Job> queue_ GUARDED_BY(queue_mutex_);
  /// Set by Stop(); workers finish the queue.
  bool draining_ GUARDED_BY(queue_mutex_) = false;
  /// Admission counter.
  uint64_t job_seq_ GUARDED_BY(queue_mutex_) = 0;
  /// One slot per worker (sized once in Start, before workers exist).
  std::vector<RunningJob> running_ GUARDED_BY(queue_mutex_);
  std::vector<std::thread> workers_;

  /// Stall-watchdog plumbing. The watchdog mutex guards only its own
  /// stop flag / cv wait; the scan itself runs under queue_mutex_ with
  /// the watchdog mutex released — the two are never nested.
  Mutex watchdog_mutex_{LockRank::kServerWatchdog, "server.watchdog_mutex"};
  CondVar watchdog_cv_;
  bool watchdog_stop_ GUARDED_BY(watchdog_mutex_) = false;
  std::thread watchdog_;

  /// Last: its session threads use everything above.
  SessionHost host_;
};

}  // namespace server
}  // namespace onex

#endif  // ONEX_SERVER_SERVER_H_
