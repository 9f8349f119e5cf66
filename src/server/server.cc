#include "server/server.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <iterator>
#include <thread>
#include <utility>

#include "core/inflight.h"
#include "server/protocol.h"
#include "util/crc32.h"
#include "util/file_bytes.h"
#include "util/logging.h"
#include "util/process_stats.h"
#include "util/timer.h"
#include "util/trace.h"

namespace onex {
namespace server {

namespace {

/// PART frames are emitted at most this often per query (unless a batch
/// grows past kPartMaxBatch first): frequent enough to feel live,
/// sparse enough that a hit-dense range query doesn't drown the socket.
constexpr auto kPartMinInterval = std::chrono::milliseconds(20);
constexpr size_t kPartMaxBatch = 64;

/// Implicit EDF rank of a deadline-less job: admission + this budget.
/// Tuned to sub-second interactive expectations — a fresh untagged
/// query still yields to queries whose explicit deadline is nearer, but
/// once it has aged past the budget it outranks every new arrival, so
/// FIFO's progress guarantee is preserved.
constexpr auto kDeadlineLessRankBudget = std::chrono::milliseconds(500);

/// HEALTH readiness degrades once queue depth reaches this fraction of
/// max_queue — deliberately BEFORE the queue starts shedding with
/// OVERLOADED, so a router can drain the node while it still answers.
constexpr double kReadyQueueRatio = 0.8;

int64_t SteadyNanos(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Batches a tagged query's typed progress events into the PART frame
/// variant matching their shape (match / GROUP / REC). Called from the
/// worker thread running the query; throttles to kPartMinInterval so
/// the frame stream stays light. One query emits events of exactly one
/// shape, so only one pending buffer is ever populated.
class PartStreamer {
 public:
  PartStreamer(std::shared_ptr<Session> session, QueryKind kind, uint64_t id)
      : session_(std::move(session)), kind_(kind), id_(id) {}

  void OnEvent(const ProgressEvent& event) {
    std::visit(Overloaded{
                   [&](const MatchProgress& p) {
                     Buffer(&matches_, p.matches, event.snapshot);
                   },
                   [&](const GroupProgress& p) {
                     Buffer(&groups_, p.groups, event.snapshot);
                   },
                   [&](const RecommendProgress& p) {
                     Buffer(&rows_, p.rows, event.snapshot);
                   },
               },
               event.payload);
    fraction_ = event.work_fraction;
    const size_t pending = matches_.size() + groups_.size() + rows_.size();
    const auto now = std::chrono::steady_clock::now();
    if (pending == 0 && !snapshot_) return;
    if (seq_ != 0 && now - last_emit_ < kPartMinInterval &&
        pending < kPartMaxBatch) {
      return;
    }
    session_->Send(Render());
    last_emit_ = now;
    matches_.clear();
    groups_.clear();
    rows_.clear();
    snapshot_ = false;
  }

 private:
  template <typename T>
  void Buffer(std::vector<T>* into, std::span<const T> batch,
              bool snapshot) {
    AccumulateProgress(into, batch, snapshot);
    if (snapshot) snapshot_ = true;
  }

  std::string Render() {
    if (!groups_.empty()) {
      return RenderPartBlock(
          id_, seq_++, fraction_, snapshot_,
          std::span<const std::vector<SubsequenceRef>>(groups_.data(),
                                                       groups_.size()));
    }
    if (!rows_.empty()) {
      return RenderPartBlock(
          id_, seq_++, fraction_, snapshot_,
          std::span<const Recommendation>(rows_.data(), rows_.size()));
    }
    // Match-shaped, including the empty-snapshot case (a best-so-far
    // reset): byte-identical to the v3 frames.
    return RenderPartBlock(
        kind_, id_, seq_++, fraction_, snapshot_,
        std::span<const QueryMatch>(matches_.data(), matches_.size()));
  }

  std::shared_ptr<Session> session_;
  QueryKind kind_;
  uint64_t id_;
  // Touched only by the one worker running the query — no lock needed.
  std::vector<QueryMatch> matches_;
  std::vector<std::vector<SubsequenceRef>> groups_;
  std::vector<Recommendation> rows_;
  bool snapshot_ = false;
  double fraction_ = 0.0;
  uint64_t seq_ = 0;
  std::chrono::steady_clock::time_point last_emit_;
};

}  // namespace

struct Server::Connection final : SessionHandler {
  Connection(Server* server, std::shared_ptr<Session> session)
      : server(server), session(std::move(session)) {
    server->metrics_.RecordConnection();
    const std::string& name = server->options_.default_dataset;
    if (name.empty()) return;
    auto acquired = server->catalog_->Acquire(name);
    if (acquired.ok()) {
      engine = std::move(acquired).value();
      dataset = name;
    }
  }

  void Handle(const Request& request, const RequestAttrs& attrs,
              const std::string& /*line*/) override {
    server->HandleRequest(this, request, attrs);
  }
  void OnBadRequest() override { server->metrics_.RecordBadRequest(); }

  Server* const server;
  const std::shared_ptr<Session> session;
  // Session-thread-only.
  std::shared_ptr<const Engine> engine;
  std::string dataset;  // Bound dataset name, for APPEND/FLUSH routing.
};

Server::Server(ServerOptions options, std::shared_ptr<Catalog> catalog)
    : options_(std::move(options)),
      catalog_(std::move(catalog)),
      host_(options_.host, options_.port,
            [this](const std::shared_ptr<Session>& session) {
              return std::make_unique<Connection>(this, session);
            }) {
  if (options_.max_queue == 0) options_.max_queue = 1;
  if (options_.num_workers == 0) options_.num_workers = 1;
}

Result<std::unique_ptr<Server>> Server::Start(
    ServerOptions options, std::shared_ptr<Catalog> catalog) {
  std::unique_ptr<Server> server(
      new Server(std::move(options), std::move(catalog)));
  {
    // Workers don't exist yet, but the analysis (rightly) can't assume
    // that — size the per-worker slots under the queue lock.
    MutexLock lock(server->queue_mutex_);
    server->running_.resize(server->options_.num_workers);
  }
  for (size_t i = 0; i < server->options_.num_workers; ++i) {
    server->workers_.emplace_back([s = server.get(), i] { s->WorkerLoop(i); });
  }
  if (server->options_.stall_ms > 0) {
    server->watchdog_ = std::thread([s = server.get()] { s->WatchdogLoop(); });
  }
  const Status listening = server->host_.Start();
  if (!listening.ok()) return listening;
  return server;
}

Server::~Server() { Stop(); }

bool Server::Submit(Job job) {
  // Jobs swept from the queue by the deadline shed; completed OUTSIDE
  // the lock (their done callbacks render and send).
  std::vector<Job> expired;
  bool accepted = false;
  size_t depth = 0;
  {
    MutexLock lock(queue_mutex_);
    if (!draining_) {
      job.seq = ++job_seq_;
      job.admitted = std::chrono::steady_clock::now();
      job.rank = job.ctx.deadline.value_or(job.admitted +
                                           kDeadlineLessRankBudget);
      if (queue_.size() >= options_.max_queue) {
        const auto now = std::chrono::steady_clock::now();
        // Shed 1: queued queries that can no longer meet their deadline
        // would burn a worker to produce an answer nobody can use —
        // complete them as DEADLINE_EXCEEDED right here and reuse their
        // slots.
        for (auto it = queue_.begin(); it != queue_.end();) {
          if (it->ctx.deadline.has_value() && now >= *it->ctx.deadline) {
            expired.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
        // Shed 2: cancel the OLDEST running query whose deadline has
        // passed; its worker notices within one check period and frees
        // up. The new job is admitted one-over-bound on that promise
        // (bounded by num_workers extra entries). The victim keeps its
        // slot — it still runs until the worker notices — but the shed
        // latch buys exactly one admission per victim.
        if (queue_.size() >= options_.max_queue) {
          RunningJob* oldest = nullptr;
          for (RunningJob& running : running_) {
            if (running.job == nullptr || running.shed) continue;
            const auto& deadline = running.job->ctx.deadline;
            if (!deadline.has_value() || now < *deadline) continue;
            if (oldest == nullptr || running.job->seq < oldest->job->seq) {
              oldest = &running;
            }
          }
          if (oldest != nullptr) {
            oldest->job->ctx.cancel.Cancel();
            oldest->shed = true;
            accepted = true;
          }
        }
      }
      if (queue_.size() < options_.max_queue || accepted) {
        accepted = true;
        queue_.push_back(std::move(job));
        depth = queue_.size();
      }
    }
  }
  if (accepted) queue_cv_.NotifyOne();
  for (Job& shed : expired) {
    // A queue-swept shed is by definition a deadline miss.
    metrics_.RecordDeadlineMiss();
    shed.done(Status::DeadlineExceeded(
        "shed from the queue: deadline passed while waiting for a worker"));
  }
  if (accepted && options_.on_enqueue) options_.on_enqueue(depth);
  return accepted;
}

void Server::WorkerLoop(size_t index) {
  while (true) {
    Job job;
    InflightClaim claim;
    {
      MutexLock lock(queue_mutex_);
      while (!draining_ && queue_.empty()) queue_cv_.Wait(queue_mutex_);
      if (queue_.empty()) return;  // draining_ and nothing left.
      // Earliest-deadline-first dispatch: the queued job with the
      // nearest rank runs next — the explicit deadline when one was
      // given, else admission + kDeadlineLessRankBudget (an aging
      // implicit urgency; see Job::rank for why this cannot starve a
      // deadline-less job the way ranking it "infinitely late" would).
      // Ties break by admission seq, so equal-rank jobs stay FIFO.
      // Under load this cuts deadline misses without any new protocol
      // surface — the `deadline_miss` STATS counter makes the effect
      // observable. The scan is O(queue depth), which the max_queue
      // bound keeps small.
      auto best = queue_.begin();
      for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
        if (it->rank < best->rank ||
            (it->rank == best->rank && it->seq < best->seq)) {
          best = it;
        }
      }
      job = std::move(*best);
      queue_.erase(best);
      // Claim an in-flight registry slot before the job becomes
      // visible as running: INSPECT, the watchdog, and the crash
      // recorder read the live stage and counters from the probe. Claim
      // is a lock-free CAS scan, safe under queue_mutex_.
      const auto started = std::chrono::steady_clock::now();
      claim = InflightClaim(
          this, job.wire_id, static_cast<uint64_t>(job.session_fd),
          static_cast<uint32_t>(KindOf(job.request)), job.dataset,
          static_cast<uint64_t>(SteadyNanos(started)),
          job.ctx.deadline.has_value() ? SteadyNanos(*job.ctx.deadline)
                                       : -1);
      job.ctx.probe = claim.probe();
      running_[index] = RunningJob{.job = &job, .started = started};
    }
    if (options_.on_job_start) options_.on_job_start();
    // How long the job sat between admission and this worker picking it
    // up — the queue-wait stage of the query's breakdown. Measured here
    // (not in done) so execution time never leaks into it.
    const double queue_wait =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      job.admitted)
            .count();
    Result<QueryResponse> result = [&]() -> Result<QueryResponse> {
      ONEX_TRACE_SPAN("server.execute");
      return job.engine->Execute(job.request, job.ctx);
    }();
    if (result.ok()) result.value().stats.queue_wait_seconds = queue_wait;
    {
      // Clear the slot BEFORE the claim releases the probe and before
      // the job leaves this stack frame — the shedder, the watchdog and
      // INSPECT dereference both under this same mutex.
      MutexLock lock(queue_mutex_);
      running_[index] = RunningJob{};
    }
    claim = InflightClaim();
    // A completion past the job's own deadline is a miss whether or not
    // the context interrupted it (a query can squeak past its last
    // check and finish whole, yet still be late).
    if (job.ctx.deadline.has_value() &&
        std::chrono::steady_clock::now() > *job.ctx.deadline) {
      metrics_.RecordDeadlineMiss();
    }
    job.done(std::move(result));
  }
}

void Server::WatchdogLoop() {
  const auto period = std::chrono::milliseconds(
      options_.watchdog_period_ms == 0 ? 1 : options_.watchdog_period_ms);
  while (true) {
    {
      MutexLock lock(watchdog_mutex_);
      if (watchdog_stop_) return;
      watchdog_cv_.WaitFor(watchdog_mutex_, period);
      if (watchdog_stop_) return;
    }
    // Scan under queue_mutex_ (watchdog mutex released — never
    // nested); log and count OUTSIDE it, the JSON sink does I/O.
    std::vector<InflightRow> flagged;
    std::vector<std::pair<uint64_t, double>> flagged_meta;  // seq, ms.
    const auto now = std::chrono::steady_clock::now();
    {
      MutexLock lock(queue_mutex_);
      for (RunningJob& slot : running_) {
        if (slot.job == nullptr || slot.stalled) continue;
        const Job& job = *slot.job;
        // Stall budget: 3x the job's own deadline budget when it has
        // one, floored at --stall-ms; deadline-less jobs get the
        // floor alone.
        std::chrono::steady_clock::duration threshold =
            std::chrono::milliseconds(options_.stall_ms);
        if (job.ctx.deadline.has_value()) {
          const auto deadline_budget = (*job.ctx.deadline - job.admitted) * 3;
          if (deadline_budget > threshold) threshold = deadline_budget;
        }
        const auto elapsed = now - slot.started;
        if (elapsed <= threshold) continue;
        slot.stalled = true;  // Flag (and count) each job once.
        InflightRow row;
        if (job.ctx.probe != nullptr) {
          job.ctx.probe->stalled.store(1, std::memory_order_relaxed);
          row = DecodeProbe(*job.ctx.probe);
        } else {  // Registry saturated: name what the job knows.
          row.id = job.wire_id;
          row.kind = static_cast<uint32_t>(KindOf(job.request));
        }
        flagged.push_back(std::move(row));
        flagged_meta.emplace_back(
            job.seq,
            std::chrono::duration<double, std::milli>(elapsed).count());
      }
    }
    for (size_t i = 0; i < flagged.size(); ++i) {
      metrics_.RecordWatchdogStall();
      const InflightRow& row = flagged[i];
      JsonLogLine line(LogLevel::kWarn, "stalled_worker");
      line.Int("seq", flagged_meta[i].first)
          .Num("elapsed_ms", flagged_meta[i].second)
          .Int("id", row.id)
          .Int("session", row.session)
          .Str("kind", ToString(static_cast<QueryKind>(row.kind)))
          .Str("dataset", row.dataset)
          .Str("stage", ToString(row.stage))
          .Int("seen", row.candidates)
          .Int("kim_pruned", row.pruned_kim)
          .Int("keogh_pruned", row.pruned_keogh)
          .Int("dtw_abandoned", row.dtw_abandoned)
          .Int("dtw_completed", row.dtw_completed);
      line.Write();
    }
  }
}

Server::WorkerGauges Server::ScanWorkers() const {
  WorkerGauges gauges;
  gauges.queue_depth = queue_.size();
  for (const RunningJob& running : running_) {
    if (running.job == nullptr) continue;
    ++gauges.busy;
    if (running.stalled) ++gauges.stalled;
  }
  return gauges;
}

std::string Server::RenderInspect() {
  const auto now = std::chrono::steady_clock::now();
  const int64_t now_ns = SteadyNanos(now);

  // Live rows come from the registry (filtered to this server), not
  // from running_: the probe mirror carries the stage and cascade
  // counters the queue slots never see.
  const std::vector<InflightRow> live =
      InflightRegistry::Global().Snapshot(this);

  struct QueuedRow {
    uint64_t seq = 0;
    uint64_t wire_id = 0;
    QueryKind kind = QueryKind::kBestMatch;
    std::string dataset;
    int64_t waited_us = 0;
    bool has_deadline = false;
    int64_t deadline_remaining_us = 0;
  };
  std::vector<QueuedRow> queued;
  WorkerGauges workers;
  {
    MutexLock lock(queue_mutex_);
    workers = ScanWorkers();
    queued.reserve(queue_.size());
    for (const Job& job : queue_) {
      QueuedRow row;
      row.seq = job.seq;
      row.wire_id = job.wire_id;
      row.kind = KindOf(job.request);
      row.dataset = job.dataset;
      row.waited_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          now - job.admitted)
                          .count();
      if (job.ctx.deadline.has_value()) {
        row.has_deadline = true;
        row.deadline_remaining_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                *job.ctx.deadline - now)
                .count();
      }
      queued.push_back(std::move(row));
    }
  }
  const std::vector<int> fds = host_.SessionFds();
  const std::vector<CatalogEntryInfo> datasets = catalog_->List();

  std::string reply =
      "OK Inspect queries=" + std::to_string(live.size()) +
      " queue_depth=" + std::to_string(workers.queue_depth) +
      " workers_busy=" + std::to_string(workers.busy) +
      " workers_total=" + std::to_string(options_.num_workers) +
      " sessions=" + std::to_string(fds.size()) +
      " stalled_workers=" + std::to_string(workers.stalled) + "\n";
  for (const InflightRow& row : live) {
    const int64_t elapsed_us =
        (now_ns - static_cast<int64_t>(row.start_ns)) / 1000;
    reply += "query id=" + std::to_string(row.id) +
             " session=" + std::to_string(row.session) +
             " kind=" + ToString(static_cast<QueryKind>(row.kind)) +
             " dataset=" + row.dataset + " stage=" + ToString(row.stage) +
             " elapsed_us=" + std::to_string(elapsed_us) +
             " deadline_remaining_us=" +
             (row.deadline_ns < 0
                  ? std::string("none")
                  : std::to_string((row.deadline_ns - now_ns) / 1000)) +
             " seen=" + std::to_string(row.candidates) +
             " kim_pruned=" + std::to_string(row.pruned_kim) +
             " keogh_pruned=" + std::to_string(row.pruned_keogh) +
             " dtw_abandoned=" + std::to_string(row.dtw_abandoned) +
             " dtw_completed=" + std::to_string(row.dtw_completed) +
             " stalled=" + (row.stalled ? "1" : "0") + "\n";
  }
  for (const QueuedRow& row : queued) {
    reply += "queued seq=" + std::to_string(row.seq) +
             " id=" + std::to_string(row.wire_id) +
             " kind=" + ToString(row.kind) + " dataset=" + row.dataset +
             " waited_us=" + std::to_string(row.waited_us) +
             " deadline_remaining_us=" +
             (row.has_deadline ? std::to_string(row.deadline_remaining_us)
                               : std::string("none")) +
             "\n";
  }
  for (const int session_fd : fds) {
    reply += "session fd=" + std::to_string(session_fd) + "\n";
  }
  for (const CatalogEntryInfo& row : datasets) {
    reply += "catalog name=" + row.name +
             " resident=" + (row.resident ? "1" : "0") +
             " dirty=" + (row.dirty ? "1" : "0") + "\n";
  }
  return reply + ".\n";
}

std::string Server::RenderHealth() {
  const storage::StorageStats durable = catalog_->DurableStats();
  WorkerGauges workers;
  {
    MutexLock lock(queue_mutex_);
    workers = ScanWorkers();
  }
  const bool wal_ok = !durable.wal_write_failed;
  // A server that never checkpointed (age < 0) is not stale, just
  // young — the budget only judges completed checkpoints.
  const bool age_ok =
      options_.checkpoint_age_budget_s <= 0.0 ||
      durable.checkpoint_age_seconds < 0.0 ||
      durable.checkpoint_age_seconds <= options_.checkpoint_age_budget_s;
  const auto degrade_at = static_cast<size_t>(
      std::max(1.0, kReadyQueueRatio *
                        static_cast<double>(options_.max_queue)));
  const bool queue_ok = workers.queue_depth < degrade_at;
  const bool workers_ok = workers.stalled == 0;
  // v7 follower gate: a replica that never synced is not ready (it
  // would serve an empty or stale bootstrap), and one whose lag blew
  // the budget should be drained by the router until it catches up.
  ReplicaStatus replica;
  const bool is_replica = static_cast<bool>(options_.replica_status);
  if (is_replica) replica = options_.replica_status();
  const bool replica_ok =
      !is_replica ||
      (replica.lag_seconds >= 0.0 &&
       (options_.replica_lag_budget_s <= 0.0 ||
        replica.lag_seconds <= options_.replica_lag_budget_s));
  const bool ready = wal_ok && age_ok && queue_ok && workers_ok &&
                     replica_ok;

  char age[64];
  std::snprintf(age, sizeof(age), "%.3f", durable.checkpoint_age_seconds);
  char budget[64];
  std::snprintf(budget, sizeof(budget), "%.3f",
                options_.checkpoint_age_budget_s);

  std::string reply =
      std::string("OK Health live=1 ready=") + (ready ? "1" : "0") + "\n";
  reply += std::string("check name=wal_writable ok=") + (wal_ok ? "1" : "0") +
           "\n";
  reply += std::string("check name=checkpoint_age ok=") +
           (age_ok ? "1" : "0") + " age_s=" + age + " budget_s=" + budget +
           "\n";
  reply += std::string("check name=queue ok=") + (queue_ok ? "1" : "0") +
           " depth=" + std::to_string(workers.queue_depth) +
           " degrade_at=" + std::to_string(degrade_at) +
           " shed_at=" + std::to_string(options_.max_queue) + "\n";
  reply += std::string("check name=workers ok=") + (workers_ok ? "1" : "0") +
           " stalled=" + std::to_string(workers.stalled) + "\n";
  if (is_replica) {
    char lag[64];
    std::snprintf(lag, sizeof(lag), "%.3f", replica.lag_seconds);
    char lag_budget[64];
    std::snprintf(lag_budget, sizeof(lag_budget), "%.3f",
                  options_.replica_lag_budget_s);
    reply += std::string("check name=replica_lag ok=") +
             (replica_ok ? "1" : "0") + " lag_s=" + lag +
             " budget_s=" + lag_budget + " applied_seq=" +
             std::to_string(replica.last_applied_seq) + "\n";
  }
  return reply + ".\n";
}

std::string Server::RenderFetch(const std::string& dataset,
                                const std::string& artifact) {
  const std::string& dir = catalog_->data_dir();
  if (dir.empty()) {
    return RenderErrorBlock(
        "NOT_SUPPORTED",
        "this server has no data directory to serve artifacts from");
  }
  // The artifact must be one of the dataset's own manifest-named files;
  // the parser already rejected path separators, this pins the prefix
  // so one dataset name cannot read another's files.
  const bool names_dataset =
      artifact == dataset + ".onex" || artifact == dataset + ".wal" ||
      artifact.rfind(dataset + ".onex.delta.", 0) == 0;
  if (!names_dataset) {
    return RenderErrorBlock(
        "INVALID_ARGUMENT", "artifact '" + artifact +
                                "' is not one of dataset '" + dataset +
                                "'s files (<name>.onex / "
                                "<name>.onex.delta.<k> / <name>.wal)");
  }
  // Whole-file read before any header byte goes out: the size and CRC
  // promised in the header must describe exactly the bytes that follow,
  // and a checkpoint may rename a new artifact into place mid-request.
  auto read = ReadFileBytes((std::filesystem::path(dir) / artifact).string());
  if (!read.ok()) {
    if (read.status().code() == Status::Code::kNotFound) {
      return RenderErrorBlock(
          "NOT_FOUND", "artifact '" + artifact +
                           "' does not exist — re-fetch the manifest "
                           "(the chain may have been compacted)");
    }
    return RenderErrorBlock("IO_ERROR",
                            "reading artifact '" + artifact + "' failed");
  }
  const std::string bytes = std::move(read).value();

  constexpr size_t kChunkBytes = 256 * 1024;
  const size_t chunks = (bytes.size() + kChunkBytes - 1) / kChunkBytes;
  std::string reply =
      "OK Fetch dataset=" + dataset + " file=" + artifact +
      " bytes=" + std::to_string(bytes.size()) +
      " crc32=" + std::to_string(Crc32(bytes.data(), bytes.size())) +
      " chunks=" + std::to_string(chunks) +
      " chunk_bytes=" + std::to_string(kChunkBytes) + "\n";
  reply.reserve(reply.size() + bytes.size() + chunks * 8 + 8);
  auto append_u32 = [&reply](uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      reply.push_back(static_cast<char>((v >> shift) & 0xff));
    }
  };
  for (size_t offset = 0; offset < bytes.size(); offset += kChunkBytes) {
    const size_t len = std::min(kChunkBytes, bytes.size() - offset);
    append_u32(static_cast<uint32_t>(len));
    append_u32(Crc32(bytes.data() + offset, len));
    reply.append(bytes, offset, len);
  }
  return reply + ".\n";
}

void Server::RecordOutcome(QueryKind kind, const std::string& dataset,
                           double seconds,
                           const Result<QueryResponse>& result) {
  metrics_.RecordQuery(kind, seconds, result.ok());
  Status::Code interrupt = Status::Code::kOk;
  if (result.ok()) {
    const QueryResponse& response = result.value();
    metrics_.RecordQueryBreakdown(response.stats.queue_wait_seconds,
                                  response.latency_seconds,
                                  response.stats.cascade);
    if (response.partial) {
      metrics_.RecordPartialResult();
      interrupt = response.interrupt;
    }
  } else if (result.status().interrupted()) {
    // Queue-swept sheds arrive as plain errors (nothing was confirmed).
    interrupt = result.status().code();
  }
  if (interrupt == Status::Code::kCancelled) metrics_.RecordCancelled();
  if (interrupt == Status::Code::kDeadlineExceeded) {
    metrics_.RecordDeadlineExceeded();
  }

  if (options_.slow_query_ms == 0 ||
      seconds * 1000.0 < static_cast<double>(options_.slow_query_ms)) {
    return;
  }
  metrics_.RecordSlowQuery();
  JsonLogLine line(LogLevel::kWarn, "slow_query");
  line.Str("kind", ToString(kind))
      .Str("dataset", dataset)
      .Num("total_ms", seconds * 1e3)
      .Str("disposition", interrupt == Status::Code::kOk
                              ? (result.ok() ? "completed" : "error")
                              : WireCode(interrupt));
  if (result.ok()) {
    const QueryStats& s = result.value().stats;
    const uint64_t evaluated = s.cascade.dtw_abandoned +
                               s.cascade.dtw_completed;
    line.Num("queue_wait_ms", s.queue_wait_seconds * 1e3)
        .Num("exec_ms", result.value().latency_seconds * 1e3)
        .Num("rep_scan_ms", s.rep_scan_seconds * 1e3)
        .Num("member_scan_ms", s.member_scan_seconds * 1e3)
        .Num("knn_ms", s.knn_seconds * 1e3)
        .Num("refine_ms", s.refine_seconds * 1e3)
        .Int("cascade_seen", s.cascade.candidates)
        .Int("dtw_evaluated", evaluated)
        .Num("pruning_ratio",
             s.cascade.candidates == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(evaluated) /
                             static_cast<double>(s.cascade.candidates))
        .Bool("partial", result.value().partial);
  }
  line.Write();
}

void Server::HandleRequest(Connection* connection, const Request& request,
                           const RequestAttrs& attrs) {
  const std::shared_ptr<Session>& session = connection->session;
  std::shared_ptr<const Engine>& engine = connection->engine;
  std::string& dataset = connection->dataset;

  if (const auto* control = std::get_if<ControlRequest>(&request)) {
    switch (control->verb) {
      case ControlVerb::kUse: {
        auto acquired = catalog_->Acquire(control->argument);
        if (!acquired.ok()) {
          session->Send(RenderError(acquired.status()));
          break;
        }
        engine = std::move(acquired).value();
        dataset = control->argument;
        session->Send("OK Use dataset=" + control->argument + " series=" +
                      std::to_string(engine->num_series()) + " durable=" +
                      (engine->durable() ? "1" : "0") + "\n.\n");
        break;
      }
      case ControlVerb::kFlush: {
        if (engine == nullptr) {
          metrics_.RecordBadRequest();
          session->Send(RenderErrorBlock(
              kNoDatasetCode,
              "no dataset bound — send 'use <name>' first"));
          break;
        }
        if (catalog_->read_only()) {
          session->Send(RenderErrorBlock(
              kReadOnlyCode,
              "this node is a read-only follower — flush on the leader"));
          break;
        }
        const Status flushed = catalog_->Flush(dataset);
        metrics_.RecordFlush(flushed.ok());
        session->Send(flushed.ok()
                          ? "OK Flush dataset=" + dataset + "\n.\n"
                          : RenderError(flushed));
        break;
      }
      case ControlVerb::kList: {
        const auto rows = catalog_->List();
        std::string reply =
            "OK List datasets=" + std::to_string(rows.size()) + "\n";
        for (const auto& row : rows) {
          reply += "dataset name=" + row.name +
                   " resident=" + (row.resident ? "1" : "0") +
                   " pinned=" + (row.pinned ? "1" : "0") +
                   " durable=" + (row.durable ? "1" : "0") +
                   " dirty=" + (row.dirty ? "1" : "0") + "\n";
        }
        session->Send(reply + ".\n");
        break;
      }
      case ControlVerb::kStats: {
        const CatalogStats cat = catalog_->stats();
        session->Send("OK Stats\n" + metrics_.Render() +
                      "catalog resident=" + std::to_string(cat.resident) +
                      " lazy_opens=" + std::to_string(cat.lazy_opens) +
                      " hits=" + std::to_string(cat.hits) +
                      " evictions=" + std::to_string(cat.evictions) +
                      "\n.\n");
        break;
      }
      case ControlVerb::kMetrics: {
        // v5: Prometheus text exposition. The gauge snapshot is
        // assembled BEFORE RenderPrometheus runs — the metrics mutex
        // is a leaf rank and must never reach out to the queue,
        // catalog, or storage locks.
        GaugeSnapshot gauges;
        {
          MutexLock lock(queue_mutex_);
          const WorkerGauges workers = ScanWorkers();
          gauges.queue_depth = workers.queue_depth;
          gauges.workers_busy = workers.busy;
          gauges.stalled_workers = workers.stalled;
        }
        gauges.workers_total = options_.num_workers;
        for (const CatalogEntryInfo& row : catalog_->List()) {
          if (row.resident) ++gauges.catalog_resident;
          if (row.dirty) ++gauges.catalog_dirty;
        }
        gauges.storage = catalog_->DurableStats();
        if (options_.replica_status) gauges.replica = options_.replica_status();
        gauges.process = SampleProcessStats();
        session->Send("OK Metrics\n" + metrics_.RenderPrometheus(gauges) +
                      ".\n");
        break;
      }
      case ControlVerb::kInspect:
        // v6: answered inline on the session thread, like every
        // control verb — deliberately so, INSPECT must still answer
        // when every worker is wedged on a stuck query.
        session->Send(RenderInspect());
        break;
      case ControlVerb::kHealth:
        session->Send(RenderHealth());
        break;
      case ControlVerb::kManifest: {
        // v7: each MANIFEST request IS a consistent cut — the catalog
        // checkpoints every durable dataset and publishes the JSON
        // manifest, and the reply renders the same value. Repeated
        // polls are cheap: an engine whose state hasn't moved takes
        // the no-op early-out instead of growing its chain.
        auto cut = catalog_->CheckpointAll();
        if (!cut.ok()) {
          session->Send(RenderError(cut.status()));
          break;
        }
        session->Send(RenderManifestBlock(cut.value()));
        break;
      }
      case ControlVerb::kFetch:
        session->Send(RenderFetch(control->argument, control->argument2));
        break;
      case ControlVerb::kPing:
      case ControlVerb::kHelp:
      case ControlVerb::kQuit:
      case ControlVerb::kCancel:
        break;  // Answered by the session host.
    }
    return;
  }

  // Mutation path: APPEND is catalog-mediated (the session's engine
  // handle is const) and answered inline — appends take the engine's
  // writer lock, so routing them through the worker pool would let
  // one slow append occupy a worker every query is waiting for.
  if (const auto* append = std::get_if<AppendRequest>(&request)) {
    if (engine == nullptr) {
      metrics_.RecordBadRequest();
      session->Send(RenderErrorBlock(
          kNoDatasetCode, "no dataset bound — send 'use <name>' first"));
      return;
    }
    if (catalog_->read_only()) {
      session->Send(RenderErrorBlock(
          kReadOnlyCode,
          "this node is a read-only follower — append on the leader"));
      return;
    }
    auto appended = catalog_->Append(
        dataset, TimeSeries(append->values, append->label));
    metrics_.RecordAppend(appended.ok());
    if (!appended.ok()) {
      session->Send(RenderError(appended.status()));
      return;
    }
    const AppendOutcome& outcome = appended.value();
    session->Send("OK Append series=" + std::to_string(outcome.series) +
                  " total=" + std::to_string(outcome.total) +
                  " durable=" + (outcome.durable ? "1" : "0") + "\n.\n");
    return;
  }

  // Query path: resolve through the bounded queue + worker pool.
  const QueryRequest& query = std::get<QueryRequest>(request);

  // v8: the `dataset=` attribute overrides the session binding for
  // this one query. Exact names resolve through the catalog; a
  // shard-set glob only means something to the scatter-gather router,
  // so refuse it here with a pointer at the right front door.
  std::shared_ptr<const Engine> query_engine = engine;
  std::string query_dataset = dataset;
  if (!attrs.dataset.empty()) {
    if (attrs.dataset.find('*') != std::string::npos) {
      metrics_.RecordBadRequest();
      session->Send(RenderErrorBlock(
          "INVALID_ARGUMENT",
          "shard-set '" + attrs.dataset +
              "' needs the onex_router front door — this server serves "
              "exact dataset names",
          attrs.id));
      return;
    }
    auto acquired = catalog_->Acquire(attrs.dataset);
    if (!acquired.ok()) {
      metrics_.RecordBadRequest();
      session->Send(RenderError(acquired.status(), attrs.id));
      return;
    }
    query_engine = std::move(acquired).value();
    query_dataset = attrs.dataset;
  }
  if (query_engine == nullptr) {
    metrics_.RecordBadRequest();
    session->Send(RenderErrorBlock(
        kNoDatasetCode, "no dataset bound — send 'use <name>' first",
        attrs.id));
    return;
  }

  Job job;
  job.request = query;
  job.engine = std::move(query_engine);
  if (attrs.deadline_ms != 0) {
    job.ctx.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(attrs.deadline_ms);
  }
  job.wire_id = attrs.id;
  job.session_fd = session->fd();
  job.dataset = std::move(query_dataset);
  // v3 multiplexed query: register the id (its cancel trips the job's
  // token) and stream PART frames when asked; the session thread keeps
  // reading. An untagged query holds the session until it is answered.
  std::shared_ptr<std::promise<void>> answered;
  if (attrs.id != 0) {
    if (!session->Track(attrs.id,
                        [cancel = job.ctx.cancel] { cancel.Cancel(); })) {
      metrics_.RecordBadRequest();
      return;
    }
    if (attrs.progress) {
      auto streamer =
          std::make_shared<PartStreamer>(session, KindOf(query), attrs.id);
      job.ctx.progress = [streamer](const ProgressEvent& event) {
        streamer->OnEvent(event);
      };
    }
  } else {
    answered = std::make_shared<std::promise<void>>();
  }
  std::future<void> reply =
      answered != nullptr ? answered->get_future() : std::future<void>();
  job.done = [this, session, id = attrs.id, trace = attrs.trace,
              dataset = job.dataset, kind = KindOf(query), answered,
              latency = Timer()](Result<QueryResponse> result) {
    RecordOutcome(kind, dataset, latency.ElapsedSeconds(), result);
    session->Send(result.ok() ? RenderResponse(result.value(), id, trace)
                              : RenderError(result.status(), id));
    if (answered != nullptr) {
      answered->set_value();
    } else {
      session->Untrack(id);
    }
  };
  if (!Submit(std::move(job))) {
    metrics_.RecordOverloaded();
    if (attrs.id != 0) session->Untrack(attrs.id);
    session->Send(RenderErrorBlock(kOverloadedCode,
                                   "request queue is full — retry", attrs.id));
    return;
  }
  if (reply.valid()) reply.wait();
}

void Server::Stop() {
  host_.Stop([this] {
    // Retire the watchdog before the workers it observes.
    {
      MutexLock lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.NotifyAll();
    if (watchdog_.joinable()) watchdog_.join();

    // Drain the queue — every accepted job still gets an answer — and
    // retire the workers.
    {
      MutexLock lock(queue_mutex_);
      draining_ = true;
    }
    queue_cv_.NotifyAll();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  });
}

}  // namespace server
}  // namespace onex
