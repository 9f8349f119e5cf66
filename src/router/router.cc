#include "router/router.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "router/merge.h"

namespace onex {
namespace router {

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

double HeaderDouble(const std::map<std::string, std::string>& header,
                    const char* key, double fallback) {
  auto it = header.find(key);
  if (it == header.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

std::string HeaderString(const std::map<std::string, std::string>& header,
                         const char* key) {
  auto it = header.find(key);
  return it == header.end() ? std::string() : it->second;
}

}  // namespace

struct Router::Connection final : server::SessionHandler {
  Connection(Router* router, std::shared_ptr<server::Session> session)
      : router(router), session(std::move(session)) {}

  /// Runs after the session's in-flight table drained, so every
  /// coordinator has sent its final.
  ~Connection() override {
    for (server::TrackedThread& coordinator : coordinators) {
      coordinator.thread.join();
    }
    if (write_client.has_value()) write_client->Close();
  }

  void Handle(const server::Request& request, const server::RequestAttrs& attrs,
              const std::string& line) override {
    router->HandleRequest(this, request, attrs, line);
  }

  Router* const router;
  const std::shared_ptr<server::Session> session;

  // Session-thread-only from here on.
  /// `use` binding: an exact name or a shard-set spec.
  std::string bound;
  // Write forwarding. The connection is blocking and a failed write is
  // NEVER retried: a write whose connection died has unknowable fate.
  std::optional<server::Client> write_client;
  size_t write_upstream = static_cast<size_t>(-1);
  std::string write_dataset;
  /// Coordinator threads of this session's tagged queries. Finished
  /// ones are joined as the next tagged query arrives, the rest when
  /// the session ends.
  std::vector<server::TrackedThread> coordinators;
};

// The merge state machine of one (possibly scattered) query.
struct Router::ScatterOp {
  ScatterOp(std::shared_ptr<server::Session> session,
            const QueryRequest& query, uint64_t client_id, size_t legs)
      : session(std::move(session)),
        client_id(client_id),
        match_shaped(IsMatchShaped(query)),
        keep(MergeKeepLimit(query)),
        started(std::chrono::steady_clock::now()),
        leg_rows(legs),
        leg_frac(legs, 0.0),
        leg_handles(legs) {}

  const std::shared_ptr<server::Session> session;
  const uint64_t client_id;
  const bool match_shaped;
  const size_t keep;
  const std::chrono::steady_clock::time_point started;

  Mutex mutex{LockRank::kRouterMerge, "router.op.mutex"};
  uint64_t seq GUARDED_BY(mutex) = 0;
  bool cancelled GUARDED_BY(mutex) = false;
  /// Latest match-shaped snapshot per leg (re-ranked on every frame).
  std::vector<std::vector<std::string>> leg_rows GUARDED_BY(mutex);
  std::vector<double> leg_frac GUARDED_BY(mutex);
  /// Current upstream handle per leg, for CANCEL fan-out (replaced on
  /// failover re-submit).
  std::vector<server::Client::Handle> leg_handles GUARDED_BY(mutex);
  /// Legs whose in-flight handle became ready, in completion order:
  /// pushed by the handles' completion hooks, drained by RunScatter.
  std::deque<size_t> completed GUARDED_BY(mutex);
  CondVar completed_cv;
};

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      table_(options_.upstreams),
      metrics_(options_.upstreams.size()),
      pool_(options_.pool, &table_),
      host_(options_.host, options_.port,
            [this](const std::shared_ptr<server::Session>& session) {
              return std::make_unique<Connection>(this, session);
            }) {}

Result<std::unique_ptr<Router>> Router::Start(RouterOptions options) {
  std::unique_ptr<Router> router(new Router(std::move(options)));
  router->pool_.Start();
  const Status listening = router->host_.Start();
  if (!listening.ok()) return listening;
  return router;
}

Router::~Router() { Stop(); }

void Router::Stop() {
  // The drain tears down the upstream pool: probes stop, query links
  // close, so every leg still in flight completes with a transport
  // error and its coordinator finishes.
  host_.Stop([this] { pool_.Stop(); });
}

void Router::HandleRequest(Connection* connection,
                           const server::Request& request,
                           const server::RequestAttrs& attrs,
                           const std::string& line) {
  const std::shared_ptr<server::Session>& session = connection->session;
  if (const auto* control = std::get_if<server::ControlRequest>(&request)) {
    switch (control->verb) {
      case server::ControlVerb::kUse: {
        const std::string& spec = control->argument;
        const auto names = table_.Expand(spec);
        if (names.empty()) {
          session->Send(server::RenderError(
              Status::NotFound("no upstream serves '" + spec + "'")));
          break;
        }
        connection->bound = spec;
        session->Send("OK Use dataset=" + spec +
                      " datasets=" + std::to_string(names.size()) + "\n.\n");
        break;
      }
      case server::ControlVerb::kList:
        session->Send(RenderRouterList());
        break;
      case server::ControlVerb::kStats:
        session->Send(server::RenderErrorBlock(
            "NOT_SUPPORTED",
            "stats is node-local — connect to an upstream directly"));
        break;
      case server::ControlVerb::kFlush:
        ForwardWrite(connection, line, "flush");
        break;
      case server::ControlVerb::kMetrics:
        session->Send("OK Metrics\n" +
                      metrics_.RenderPrometheus(table_.Snapshot()) + ".\n");
        break;
      case server::ControlVerb::kInspect:
        session->Send(RenderRouterInspect());
        break;
      case server::ControlVerb::kHealth:
        session->Send(RenderRouterHealth());
        break;
      case server::ControlVerb::kManifest:
      case server::ControlVerb::kFetch:
        session->Send(server::RenderErrorBlock(
            "NOT_SUPPORTED",
            "replication verbs bypass the router — fetch from the "
            "leader directly"));
        break;
      case server::ControlVerb::kPing:
      case server::ControlVerb::kHelp:
      case server::ControlVerb::kQuit:
      case server::ControlVerb::kCancel:
        break;  // Answered by the session host.
    }
    return;
  }

  if (std::get_if<server::AppendRequest>(&request) != nullptr) {
    ForwardWrite(connection, line, "append");
    return;
  }

  // Query path: resolve the target spec, expand, scatter.
  const auto& query = std::get<QueryRequest>(request);
  metrics_.RecordRequest();
  const std::string spec =
      attrs.dataset.empty() ? connection->bound : attrs.dataset;
  if (spec.empty()) {
    session->Send(server::RenderErrorBlock(
        server::kNoDatasetCode,
        "no dataset bound — send 'use <name>' or a dataset= attribute",
        attrs.id));
    return;
  }
  auto datasets = table_.Expand(spec);
  if (datasets.empty()) {
    session->Send(server::RenderError(
        Status::NotFound("no upstream serves '" + spec + "'"), attrs.id));
    return;
  }
  if (datasets.size() > 1) metrics_.RecordScatter(datasets.size());

  auto op =
      std::make_shared<ScatterOp>(session, query, attrs.id, datasets.size());
  if (attrs.id == 0) {
    // Untagged: strictly ordered replies — run inline.
    RunScatter(op, query, attrs, datasets);
    return;
  }
  if (!session->Track(attrs.id, [this, op] { CancelOp(op); })) return;
  // Tagged: run on a coordinator thread so this session thread can
  // keep reading (CANCEL must be able to overtake the query).
  server::TrackedThread::ReapFinished(&connection->coordinators);
  connection->coordinators.push_back(server::TrackedThread::Spawn(
      [this, op, query, attrs, datasets = std::move(datasets)] {
        RunScatter(op, query, attrs, datasets);
        op->session->Untrack(attrs.id);
      }));
}

void Router::RunScatter(const std::shared_ptr<ScatterOp>& op,
                        const QueryRequest& request,
                        const server::RequestAttrs& attrs,
                        const std::vector<std::string>& datasets) {
  // Failover state per leg; only this thread touches it.
  struct Leg {
    /// Upstreams attempted, in order (one repeats when re-dialed).
    std::vector<size_t> tried;
    std::vector<size_t> unreachable;  ///< Upstreams whose dial failed.
    std::shared_ptr<server::Client> link;
    server::Client::Handle handle;
    Status error = Status::OK();  ///< Last transport failure.
    std::optional<server::WireResponse> final;
  };
  std::vector<Leg> legs(datasets.size());

  // Puts `leg` in flight with the deadline budget that remains: on its
  // best untried replica or, once every ready one was tried, on a
  // freshly dialed link to the best reachable one again (a failed
  // attempt dropped its link, so this re-dials — the same upstream
  // when it is the only one, e.g. a node restarted since its link was
  // dialed). At most 1 + max_failovers attempts; false when they are
  // spent or nothing can serve the leg (leg.error says why).
  auto submit = [&](size_t leg) {
    Leg& state = legs[leg];
    if (state.tried.empty()) {
      state.error = Status::IOError("no ready upstream serves '" +
                                    datasets[leg] + "'");
    }
    while (static_cast<int>(state.tried.size()) <= options_.max_failovers) {
      {
        MutexLock lock(op->mutex);
        if (op->cancelled) {
          state.error = Status::Cancelled("cancelled before leg could run");
          return false;
        }
      }
      if (!state.tried.empty()) metrics_.RecordFailover();
      auto pick = table_.PickRead(datasets[leg], state.tried);
      if (!pick.has_value() && !state.tried.empty()) {
        pick = table_.PickRead(datasets[leg], state.unreachable);
      }
      if (!pick.has_value()) return false;
      const size_t idx = pick.value();
      state.tried.push_back(idx);
      auto link = pool_.QueryLink(idx);
      if (!link.ok()) {
        state.unreachable.push_back(idx);
        state.error = link.status();
        continue;
      }
      state.link = link.value();
      metrics_.RecordUpstreamRequest(idx, table_.IsFollower(idx));

      server::Client::SubmitOptions options;
      options.deadline_ms =
          RemainingBudgetMs(attrs.deadline_ms, ElapsedUs(op->started) / 1000);
      options.trace = attrs.trace;
      options.dataset = datasets[leg];
      if (attrs.progress) {
        options.on_progress = [op, leg](const server::WireResponse& part) {
          OnLegPart(op, leg, part);
        };
      }
      options.on_done = [op, leg] {
        MutexLock lock(op->mutex);
        op->completed.push_back(leg);
        op->completed_cv.NotifyAll();
      };
      auto submitted = state.link->Submit(request, std::move(options));
      if (!submitted.ok()) {
        pool_.DropLink(idx, state.link.get());
        state.error = submitted.status();
        continue;
      }
      state.handle = submitted.value();
      bool was_cancelled = false;
      {
        MutexLock lock(op->mutex);
        op->leg_handles[leg] = state.handle;
        was_cancelled = op->cancelled;
      }
      // CANCEL raced the submit: the fan-out missed this handle, so
      // deliver it here (idempotent server-side) and count it as fanned.
      if (was_cancelled) {
        state.handle.Cancel();
        metrics_.RecordCancelFanout(1);
      }
      return true;
    }
    return false;
  };

  size_t in_flight = 0;
  for (size_t leg = 0; leg < legs.size(); ++leg) in_flight += submit(leg);
  // Gather in completion order, so a dead leg fails over the moment its
  // transport failure is known, whatever the other legs are doing.
  while (in_flight > 0) {
    size_t leg = 0;
    {
      MutexLock lock(op->mutex);
      while (op->completed.empty()) op->completed_cv.Wait(op->mutex);
      leg = op->completed.front();
      op->completed.pop_front();
    }
    Leg& state = legs[leg];
    auto final = state.handle.Wait();  // Ready: its hook fired.
    if (final.ok()) {
      state.final = std::move(final).value();
      --in_flight;
      continue;
    }
    // Transport death: drop the dead link and fail over.
    pool_.DropLink(state.tried.back(), state.link.get());
    state.error = final.status();
    if (!submit(leg)) --in_flight;
  }

  // Every leg is final, and no PART frame follows its id's final, so no
  // demux callback touches the op anymore: the merge sees quiet state.
  const uint64_t latency_us = ElapsedUs(op->started);
  metrics_.RecordMergeLatency(static_cast<double>(latency_us) / 1e6);

  MergedStats stats;
  std::vector<std::vector<std::string>> leg_final_rows(legs.size());
  std::vector<std::string> extra;
  std::string kind;
  std::string interrupt;
  bool any_partial = false;
  bool any_transport_failure = false;
  Status failure = Status::OK();
  const server::WireResponse* app_error = nullptr;
  size_t successes = 0;
  for (size_t leg = 0; leg < legs.size(); ++leg) {
    if (!legs[leg].final.has_value()) {
      any_transport_failure = true;
      failure = legs[leg].error;
      continue;
    }
    const server::WireResponse& final = *legs[leg].final;
    if (!final.ok) {
      if (app_error == nullptr) app_error = &final;
      continue;
    }
    ++successes;
    if (kind.empty()) kind = final.kind;
    SplitFinalPayload(final.payload, &stats, &leg_final_rows[leg], &extra);
    if (final.partial()) {
      any_partial = true;
      if (interrupt.empty()) {
        interrupt = HeaderString(final.header, "interrupt");
      }
    }
  }

  if (app_error != nullptr) {
    // An upstream understood the query and refused it (bad arguments,
    // unknown dataset): deterministic on every replica, so propagate.
    op->session->Send(server::RenderErrorBlock(app_error->code,
                                               app_error->message, attrs.id));
    return;
  }
  if (successes == 0) {
    if (failure.ok()) failure = Status::IOError("every leg failed");
    op->session->Send(server::RenderError(failure, attrs.id));
    return;
  }
  if (any_transport_failure) {
    // Partial coverage: some shards answered, some had no live replica
    // left. Same contract as a deadline-clipped single-node answer.
    any_partial = true;
    if (interrupt.empty()) interrupt = server::WireCode(failure.code());
  }
  if (any_partial && interrupt.empty()) {
    interrupt = server::WireCode(Status::Code::kDeadlineExceeded);
  }

  std::vector<std::string> rows;
  if (op->match_shaped) {
    rows = MergeMatchRows(leg_final_rows, op->keep);
  } else {
    for (const auto& leg_rows : leg_final_rows) {
      rows.insert(rows.end(), leg_rows.begin(), leg_rows.end());
    }
  }
  op->session->Send(RenderMergedFinal(kind, attrs.id, rows, latency_us,
                                      any_partial, interrupt, stats, extra));
}

void Router::OnLegPart(const std::shared_ptr<ScatterOp>& op, size_t leg,
                       const server::WireResponse& part) {
  MutexLock lock(op->mutex);
  if (leg >= op->leg_frac.size()) return;
  op->leg_frac[leg] = HeaderDouble(part.header, "frac", op->leg_frac[leg]);
  double frac_sum = 0.0;
  for (const double frac : op->leg_frac) frac_sum += frac;
  const double merged_frac =
      op->leg_frac.empty() ? 0.0
                           : frac_sum / static_cast<double>(
                                            op->leg_frac.size());
  const bool snapshot = HeaderString(part.header, "snapshot") == "1";
  std::string frame;
  if (op->match_shaped && snapshot) {
    // Best-so-far snapshot stream (q1/q1k): replace this leg's rows and
    // re-rank the union into one merged top-k snapshot.
    op->leg_rows[leg] = part.payload;
    frame = RenderScatterPart(part.kind, op->client_id, op->seq++,
                              merged_frac, /*snapshot=*/true,
                              MergeMatchRows(op->leg_rows, op->keep));
  } else {
    // Incremental streams (q1r matches, GROUP, REC): interleave by
    // origin. Never a snapshot downstream — no single frame covers the
    // whole scattered answer.
    if (part.payload.empty()) return;
    frame = RenderScatterPart(part.kind, op->client_id, op->seq++,
                              merged_frac, /*snapshot=*/false, part.payload);
  }
  // Sent under op->mutex so downstream seq numbers are monotone on the
  // wire (merge rank 48 < session-write rank 52).
  op->session->Send(frame);
}

void Router::ForwardWrite(Connection* connection, const std::string& raw_line,
                          const std::string& verb) {
  const std::shared_ptr<server::Session>& session = connection->session;
  const std::string& dataset = connection->bound;
  if (dataset.empty()) {
    session->Send(server::RenderErrorBlock(
        server::kNoDatasetCode,
        "no dataset bound — send 'use <name>' first"));
    return;
  }
  if (IsShardSet(dataset)) {
    session->Send(server::RenderErrorBlock(
        "INVALID_ARGUMENT", "writes need an exact dataset — '" + dataset +
                                "' is a shard-set"));
    return;
  }
  const auto pick = table_.PickWrite(dataset);
  if (!pick.has_value()) {
    session->Send(server::RenderError(
        Status::IOError("no ready leader serves '" + dataset + "'")));
    return;
  }
  const size_t idx = pick.value();

  if (!connection->write_client.has_value() ||
      connection->write_upstream != idx ||
      connection->write_dataset != dataset) {
    if (connection->write_client.has_value()) {
      connection->write_client->Close();
      connection->write_client.reset();
    }
    auto dialed = pool_.Dial(idx);
    if (!dialed.ok()) {
      session->Send(server::RenderError(dialed.status()));
      return;
    }
    connection->write_client.emplace(std::move(dialed).value());
    auto bound = connection->write_client->Roundtrip("use " + dataset);
    if (!bound.ok() || !bound.value().ok) {
      const std::string detail =
          bound.ok() ? bound.value().code + " " + bound.value().message
                     : bound.status().message();
      connection->write_client->Close();
      connection->write_client.reset();
      session->Send(server::RenderError(Status::IOError(
          "binding '" + dataset + "' on the leader failed: " + detail)));
      return;
    }
    connection->write_upstream = idx;
    connection->write_dataset = dataset;
  }

  metrics_.RecordUpstreamRequest(idx, /*follower=*/false);
  auto reply = connection->write_client->Roundtrip(raw_line);
  if (!reply.ok()) {
    // The write's fate is unknown — never retried. Surface and re-dial
    // on the NEXT write.
    connection->write_client->Close();
    connection->write_client.reset();
    session->Send(server::RenderError(Status::IOError(
        verb + " to the leader failed: " + reply.status().message())));
    return;
  }
  // Relayed verbatim: the node's reply grammar stays the node's.
  std::string block = reply.value().header_line + "\n";
  for (const std::string& row : reply.value().payload) block += row + "\n";
  session->Send(block + ".\n");
}

void Router::CancelOp(const std::shared_ptr<ScatterOp>& op) {
  std::vector<server::Client::Handle> handles;
  {
    MutexLock lock(op->mutex);
    op->cancelled = true;
    handles = op->leg_handles;
  }
  size_t fanned = 0;
  for (server::Client::Handle& handle : handles) {
    if (handle.id() == 0) continue;
    handle.Cancel();  // NotFound = that leg already finished; fine.
    ++fanned;
  }
  metrics_.RecordCancelFanout(fanned);
}

std::string Router::RenderRouterHealth() const {
  const auto upstreams = table_.Snapshot();
  bool any_ready = false;
  for (const UpstreamSnapshot& up : upstreams) {
    if (up.health.ready) any_ready = true;
  }
  std::string reply = std::string("OK Health live=1 ready=") +
                      (any_ready ? "1" : "0") + "\n";
  for (const UpstreamSnapshot& up : upstreams) {
    char lag[32];
    std::snprintf(lag, sizeof(lag), "%.3f", up.health.replica_lag_s);
    reply += std::string("check name=upstream ok=") +
             (up.health.ready ? "1" : "0") + " address=" +
             up.config.address() + " role=" +
             (!up.health.reachable ? "unknown"
              : up.health.follower ? "follower"
                                   : "leader") +
             " lag_s=" + lag + "\n";
  }
  return reply + ".\n";
}

std::string Router::RenderRouterInspect() const {
  const auto upstreams = table_.Snapshot();
  const size_t sessions = host_.SessionFds().size();
  std::string reply = "OK Inspect sessions=" + std::to_string(sessions) +
                      " upstreams=" + std::to_string(upstreams.size()) +
                      "\n";
  for (const UpstreamSnapshot& up : upstreams) {
    char lag[32];
    std::snprintf(lag, sizeof(lag), "%.3f", up.health.replica_lag_s);
    reply += "upstream address=" + up.config.address() +
             " reachable=" + (up.health.reachable ? "1" : "0") +
             " ready=" + (up.health.ready ? "1" : "0") +
             " follower=" + (up.health.follower ? "1" : "0") +
             " lag_s=" + lag +
             " datasets=" + std::to_string(up.datasets.size());
    if (!up.health.error.empty()) reply += " error=" + up.health.error;
    reply += "\n";
  }
  return reply + ".\n";
}

std::string Router::RenderRouterList() const {
  const auto upstreams = table_.Snapshot();
  std::map<std::string, size_t> serving;
  for (const UpstreamSnapshot& up : upstreams) {
    for (const std::string& dataset : up.datasets) ++serving[dataset];
  }
  std::string reply =
      "OK List datasets=" + std::to_string(serving.size()) + "\n";
  for (const auto& [name, count] : serving) {
    reply += "dataset name=" + name +
             " upstreams=" + std::to_string(count) + "\n";
  }
  return reply + ".\n";
}

}  // namespace router
}  // namespace onex
