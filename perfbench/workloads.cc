// The run of one workload, in order: repeated set-up, the open-loop load,
// answer checks, writes, reopen, follower catch-up. The traced run adds
// the per-layer probes between the writes and the shutdown.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "layers.h"
#include "router/merge.h"
#include "router/router.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/replica.h"
#include "server/server.h"
#include "util/process_stats.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using onex::Engine;
using onex::ExecContext;
using onex::QueryRequest;
using onex::server::Catalog;
using onex::server::CatalogOptions;
using onex::server::Client;
using onex::server::WireResponse;

/// Every tenth read of the load is checked.
constexpr size_t kCheckStride = 10;

/// Appends left in the WAL for reopen to replay (below ingest's
/// checkpoint threshold of 12 records).
constexpr size_t kWalTail = 4;

/// Whether the read session's `use` target covers dataset `name`; a
/// shard-set `prefix*` covers every name with that prefix.
bool ReadsCover(const WorkloadSpec& spec, const std::string& name) {
  const std::string& target = spec.read_target;
  if (!target.empty() && target.back() == '*') {
    return name.rfind(target.substr(0, target.size() - 1), 0) == 0;
  }
  return name == target;
}

std::unique_ptr<onex::router::Router> StartRouter(uint16_t node_port) {
  onex::router::RouterOptions options;
  options.upstreams = {{"127.0.0.1", node_port}};
  options.pool.probe_interval_ms = 60000;
  auto router = onex::router::Router::Start(options);
  return router.ok() ? std::move(router).value() : nullptr;
}

std::unique_ptr<onex::server::Server> StartNode(
    std::shared_ptr<Catalog> catalog) {
  onex::server::ServerOptions options;
  options.num_workers = 2;
  auto server = onex::server::Server::Start(options, std::move(catalog));
  return server.ok() ? std::move(server).value() : nullptr;
}

/// The serving stack of one set-up.
struct Stack {
  std::shared_ptr<Catalog> catalog;
  std::unique_ptr<onex::server::Server> server;
  std::unique_ptr<onex::router::Router> router;
  std::unique_ptr<WireSession> reader;
  double build_s = 0;
  uint64_t groups = 0;
  double base_mb = 0;

  uint16_t front_port() const {
    return router != nullptr ? router->port() : server->port();
  }
  void Stop() {
    reader.reset();
    if (router != nullptr) router->Stop();
    router.reset();
    if (server != nullptr) server->Stop();
    server.reset();
    catalog.reset();
  }
  ~Stack() { Stop(); }
};

/// Inputs in hand to the first answered read: every Engine::Build, the
/// durable Create (Catalog::Register in durable mode), the server and
/// router starts, and the read session.
std::unique_ptr<Stack> SetUp(const WorkloadSpec& spec, const std::string& dir,
                             Tracer* tracer, Report* report) {
  auto stack = std::make_unique<Stack>();
  fs::remove_all(dir);
  fs::create_directories(dir);
  ScopedSpan span(tracer, "bench.setup");
  CatalogOptions options;
  options.data_dir = dir;
  options.durable = true;
  options.storage = spec.storage;
  stack->catalog = std::make_shared<Catalog>(options);
  for (const auto& [name, data] : spec.datasets) {
    const auto t0 = Clock::now();
    auto engine = Engine::Build(onex::Dataset(data), spec.options);
    tracer->Add("core.build", t0, Clock::now(), span.id(), 0);
    stack->build_s += Seconds(t0, Clock::now());
    report->Op(engine.ok(), "build " + name);
    if (!engine.ok()) return nullptr;
    const auto stats = engine.value().base_stats();
    stack->groups += stats.num_representatives;
    stack->base_mb += stats.TotalMb();
    stack->catalog->Register(name, std::move(engine).value());
  }
  stack->server = StartNode(stack->catalog);
  if (stack->server != nullptr && spec.routed) {
    stack->router = StartRouter(stack->server->port());
  }
  const bool started =
      stack->server != nullptr && (!spec.routed || stack->router != nullptr);
  report->Op(started, "start server/router");
  if (!started) return nullptr;
  stack->reader = std::make_unique<WireSession>();
  const bool connected =
      stack->reader->Open(stack->front_port(), spec.read_target);
  report->Op(connected, "connect reader");
  if (!connected) return nullptr;
  auto first =
      stack->reader->Roundtrip(onex::server::RenderRequestLine(spec.reads[0]));
  const bool answered = first && first->ok;
  report->Op(answered, "first read");
  return answered ? std::move(stack) : nullptr;
}

std::vector<std::string> MatchRows(const WireResponse& reply) {
  std::vector<std::string> rows;
  for (const std::string& line : reply.payload) {
    if (line.rfind("match ", 0) == 0) rows.push_back(line);
  }
  return rows;
}

double RowDistance(const std::string& row) {
  return std::strtod(onex::server::ParseKeyValues(row).at("distance").c_str(),
                     nullptr);
}

/// Wire answers of sampled reads against Engine::Execute on the same
/// engine, byte for byte (header wall clock and trace lines aside).
void CheckEngineParity(const WorkloadSpec& spec, const LoadResult& load,
                       Catalog* catalog, Report* report) {
  auto engine = catalog->Acquire(spec.read_target);
  report->Op(engine.ok(), "acquire for checks");
  if (!engine.ok()) return;
  for (size_t i = 0; i < load.reads.size(); i += kCheckStride) {
    const Sample& s = load.reads[i];
    if (!s.ok) continue;  // Already counted failed.
    auto local = engine.value()->Execute(spec.reads[i % spec.reads.size()],
                                         ExecContext{});
    if (!local.ok() ||
        AnswerText(local.value(), s.reply.id()) != AnswerText(s.reply)) {
      report->Wrong("read " + std::to_string(i) + " differs from Execute");
    } else {
      report->Op(true);
    }
  }
}

/// Routed answers of sampled reads against the direct per-shard answers
/// merged by hand: every shard's rows, ranked by distance, cut to k.
void CheckMergeParity(const WorkloadSpec& spec, const LoadResult& load,
                      uint16_t node_port, Report* report) {
  auto direct = Client::Connect("127.0.0.1", node_port);
  report->Op(direct.ok(), "connect for checks");
  if (!direct.ok()) return;
  for (size_t i = 0; i < load.reads.size(); i += kCheckStride) {
    const Sample& s = load.reads[i];
    if (!s.ok) continue;
    const QueryRequest& read = spec.reads[i % spec.reads.size()];
    std::vector<std::string> pool;
    bool ok = true;
    for (const auto& [name, data] : spec.datasets) {
      if (!ReadsCover(spec, name)) continue;
      onex::server::RequestAttrs attrs;
      attrs.dataset = name;
      auto reply = direct.value().Roundtrip(
          onex::server::RenderRequestLine(read, attrs));
      ok = ok && reply.ok() && reply.value().ok;
      if (ok) {
        for (auto& row : MatchRows(reply.value())) pool.push_back(row);
      }
    }
    std::stable_sort(pool.begin(), pool.end(),
                     [](const std::string& a, const std::string& b) {
                       return RowDistance(a) < RowDistance(b);
                     });
    size_t keep = pool.size();
    if (std::holds_alternative<onex::BestMatchRequest>(read)) keep = 1;
    if (const auto* k = std::get_if<onex::KSimilarRequest>(&read)) {
      keep = k->k;
    }
    pool.resize(std::min(keep, pool.size()));
    const auto routed = MatchRows(s.reply);
    bool same = ok && routed.size() == pool.size();
    for (size_t r = 0; same && r < routed.size(); ++r) {
      same = RowDistance(routed[r]) == RowDistance(pool[r]) &&
             std::find(pool.begin(), pool.end(), routed[r]) != pool.end();
    }
    if (same) {
      report->Op(true);
    } else {
      report->Wrong("routed read " + std::to_string(i) +
                    " differs from merged shard answers");
    }
  }
}

/// One acknowledged append: where it landed and what it held.
struct Acked {
  std::string dataset;
  size_t index;
  const std::vector<double>* values;
};

/// Reference answers of the leader, per dataset, per probe.
using Answers = std::map<std::string, std::vector<std::string>>;

Answers AnswerProbes(const WorkloadSpec& spec,
                     const std::map<std::string, std::shared_ptr<const Engine>>&
                         engines) {
  Answers answers;
  for (const auto& [name, engine] : engines) {
    for (const QueryRequest& probe : spec.probes) {
      auto r = engine->Execute(probe, ExecContext{});
      answers[name].push_back(r.ok() ? AnswerText(r.value(), 0) : "error");
    }
  }
  return answers;
}

/// Counts every probe answer against the leader's; a mismatch is wrong.
void MatchesLeader(const Answers& leader,
                   const Answers& got, Report* report,
                   const std::string& who) {
  for (const auto& [name, answers] : leader) {
    auto it = got.find(name);
    for (size_t p = 0; p < answers.size(); ++p) {
      const bool same = it != got.end() && p < it->second.size() &&
                        it->second[p] == answers[p];
      if (same) {
        report->Op(true);
      } else {
        report->Wrong(who + " probe " + std::to_string(p) + " on " + name);
      }
    }
  }
}

/// The kind of a read, for the per-kind pruning ratios: Q1 best match of
/// one length or of any length, Q1 k-sim, Q1 range, or another query.
std::string ReadKind(const QueryRequest& read) {
  if (const auto* q = std::get_if<onex::BestMatchRequest>(&read)) {
    return q->length == 0 ? "q1_any" : "q1_exact";
  }
  if (std::holds_alternative<onex::KSimilarRequest>(read)) return "q1k";
  if (std::holds_alternative<onex::RangeWithinRequest>(read)) {
    return "q1_range";
  }
  return "other";
}

/// Storage counters observed over the run (maxima of sampled gauges).
struct StorageWatch {
  uint64_t chain_length_max = 0;
  double lock_hold_ms_max = 0;
  uint64_t delta_bytes_max = 0;
  double wal_bytes_per_user_byte = 0;
  size_t series_bytes = 0;
  void Sample(const onex::storage::StorageStats& s) {
    chain_length_max = std::max(chain_length_max, s.delta_chain_length);
    lock_hold_ms_max =
        std::max(lock_hold_ms_max, s.checkpoint_lock_hold_seconds * 1e3);
    delta_bytes_max = std::max(delta_bytes_max, s.last_delta_bytes);
    if (s.wal_records > 0 && series_bytes > 0) {
      wal_bytes_per_user_byte =
          static_cast<double>(s.wal_bytes) /
          static_cast<double>(s.wal_records * series_bytes);
    }
  }
};

}  // namespace

bool RunWorkload(const WorkloadSpec& spec, const Args& args, Report* report) {
  Tracer tracer(args.trace);
  const std::string dir = args.work_dir + "/data";
  const auto& primary = spec.datasets.front().first;

  // Dirty pages a previous run left behind are written back now, not
  // during this run's measurements.
  ::sync();

  // ------------------------------------------------------------ set-up
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < spec.repeats; ++i) {
    if (stack != nullptr) stack->Stop();
    const auto t0 = Clock::now();
    stack = SetUp(spec, dir, &tracer, report);
    if (stack == nullptr) return false;
    setup_s.push_back(Seconds(t0, Clock::now()));
    build_s.push_back(stack->build_s);
  }

  // Traced run: the in-memory append cost on a twin of the fresh base.
  std::vector<double> apply_ms;
  if (args.trace) {
    auto twin =
        Engine::Open(onex::storage::BasePathFor(dir, spec.append_target));
    report->Op(twin.ok(), "open twin");
    for (size_t i = 0; twin.ok() && i < 2 && i < spec.appends.size(); ++i) {
      ScopedSpan span(&tracer, "core.append_apply");
      const auto t0 = Clock::now();
      const auto status =
          twin.value().AppendSeries(onex::TimeSeries(spec.appends[i]));
      apply_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
      report->Op(status.ok(), "twin append");
    }
  }

  std::unique_ptr<WireSession> writer;
  if (spec.append_rate > 0) {
    writer = std::make_unique<WireSession>();
    const bool connected = writer->Open(stack->front_port(), spec.append_target);
    report->Op(connected, "connect writer");
    if (!connected) return false;
  }
  StorageWatch watch;
  watch.series_bytes = spec.appends.empty()
                           ? 0
                           : spec.appends.front().size() * sizeof(double);
  auto sample_storage = [&] { watch.Sample(stack->catalog->DurableStats()); };

  // -------------------------------------------------------------- load
  // One second of reads first, unrecorded, so page faults and lazily
  // built query components are behind the measured load.
  {
    LoadPlan warm;
    warm.reads = &spec.reads;
    warm.read_rate = spec.read_rate;
    warm.seconds = 1;
    Tracer off(false);
    for (const Sample& s :
         RunOpenLoop(warm, stack->reader.get(), nullptr, &off).reads) {
      report->Op(s.ok, "warm-up read");
    }
  }
  const std::string metrics_before =
      stack->server->metrics().RenderPrometheus({});
  const uint64_t shed_before = stack->server->metrics().overloaded() +
                               stack->server->metrics().deadline_exceeded();
  const auto cpu_before = onex::SampleProcessStats();
  const double rss_before = RssMb();
  LoadPlan plan;
  plan.first_id = static_cast<uint64_t>(spec.read_rate);
  plan.reads = &spec.reads;
  plan.read_rate = spec.read_rate;
  if (writer) {
    plan.appends = &spec.appends;
    plan.append_rate = spec.append_rate;
  }
  plan.seconds = args.seconds;
  plan.trace = args.trace;
  plan.after_append = sample_storage;
  LoadResult load =
      RunOpenLoop(plan, stack->reader.get(), writer.get(), &tracer);
  const auto cpu_after = onex::SampleProcessStats();
  const double rss_after = RssMb();
  const std::string metrics_after =
      stack->server->metrics().RenderPrometheus({});
  const uint64_t shed = stack->server->metrics().overloaded() +
                        stack->server->metrics().deadline_exceeded() -
                        shed_before;
  for (const Sample& s : load.reads) {
    report->Op(s.ok, s.reply.ok ? "partial read"
                                : "read: " + s.reply.code + " " +
                                      s.reply.message);
  }

  // ----------------------------------------------------- answer checks
  if (spec.check == WorkloadSpec::Check::kEngineParity) {
    CheckEngineParity(spec, load, stack->catalog.get(), report);
  } else if (spec.check == WorkloadSpec::Check::kMergeParity) {
    CheckMergeParity(spec, load, stack->server->port(), report);
  }

  // ------------------------------------------------------------ writes
  const std::vector<Sample>& appends = load.appends;
  std::vector<Acked> acked;
  for (size_t i = 0; i < appends.size(); ++i) {
    const Sample& s = appends[i];
    report->Op(s.ok, "append: " + s.reply.code + " " + s.reply.message);
    if (s.ok) {
      acked.push_back(Acked{spec.append_target,
                            std::stoul(s.reply.header.at("series")),
                            &spec.appends[i]});
    }
  }
  if (writer) {
    // How far the background checkpointer got before the load stopped
    // varies from run to run, and with it how many WAL records a reopen
    // replays (each one an append's rebuild). A FLUSH (checkpoint) and
    // then a fixed WAL tail, shorter than any checkpoint threshold, give
    // every run the same base + chain + WAL to reopen.
    auto flushed = writer->Roundtrip("flush");
    report->Op(flushed && flushed->ok, "flush");
    const size_t first = appends.size();
    for (size_t i = first; i < first + kWalTail && i < spec.appends.size();
         ++i) {
      auto reply = writer->Roundtrip(onex::server::RenderAppendLine(
          onex::server::AppendRequest{spec.appends[i], 0}));
      const bool ok = reply && reply->ok;
      report->Op(ok, "tail append");
      if (ok) {
        acked.push_back(Acked{spec.append_target,
                              std::stoul(reply->header.at("series")),
                              &spec.appends[i]});
      }
    }
  }
  sample_storage();

  // The leader's state after the writes: the reference for every later
  // answer.
  std::map<std::string, std::shared_ptr<const Engine>> leader;
  uint64_t user_bytes = 0;
  std::map<std::string, size_t> leader_series;
  for (const auto& [name, data] : spec.datasets) {
    auto engine = stack->catalog->Acquire(name);
    report->Op(engine.ok(), "acquire " + name);
    if (!engine.ok()) return false;
    leader[name] = engine.value();
    leader_series[name] = engine.value()->num_series();
    const onex::Dataset& held = engine.value()->dataset();
    for (size_t i = 0; i < held.size(); ++i) {
      user_bytes += held[i].length() * sizeof(double);
    }
  }
  const Answers reference = AnswerProbes(spec, leader);

  // ------------------------------------------- traced run: layer probes
  KernelCosts kernels;
  std::vector<double> execute_ms;
  RouterProbe routing;
  uint64_t router_failovers = 0;
  if (args.trace) {
    kernels = MeasureKernels(*leader[primary], spec.reads, args.seed, &tracer);
    // Replay of the load's reads through Engine::Execute; a routed read
    // is the sum of its per-shard executions.
    for (size_t i = 0; i < load.reads.size() && i < 600; ++i) {
      const uint64_t root = tracer.Begin("api.execute", 0, i + 1);
      double ms = 0;
      for (const auto& [name, engine] : leader) {
        if (!ReadsCover(spec, name)) continue;
        const auto t0 = Clock::now();
        auto r = engine->Execute(spec.reads[i % spec.reads.size()],
                                 ExecContext{});
        ms += Seconds(t0, Clock::now()) * 1e3;
        report->Op(r.ok(), "replay");
      }
      tracer.End(root);
      execute_ms.push_back(ms);
    }
    std::unique_ptr<onex::router::Router> probe_router;
    onex::router::Router* router = stack->router.get();
    if (router == nullptr) {
      probe_router = StartRouter(stack->server->port());
      router = probe_router.get();
    }
    if (router != nullptr) {
      std::vector<std::string> legs;
      for (const auto& [name, data] : spec.datasets) {
        if (ReadsCover(spec, name)) legs.push_back(name);
      }
      routing = ProbeRouter(router->port(), stack->server->port(),
                            spec.read_target, legs, spec.reads, 100, &tracer);
      router_failovers = router->metrics().failovers();
    }
    if (probe_router != nullptr) probe_router->Stop();
    for (uint64_t i = 0; i < routing.attempted; ++i) {
      report->Op(i >= routing.failed, "router probe");
    }
  }
  const onex::storage::StorageStats leader_storage =
      stack->catalog->DurableStats();

  // ---------------------------------------------------------- shutdown
  leader.clear();
  writer.reset();
  stack->Stop();
  const double disk_bytes = static_cast<double>(DirBytes(dir));

  // ------------------------------------------------------------ reopen
  std::vector<double> reopen_s;
  uint64_t replayed = 0;
  for (int r = 0; r < spec.repeats; ++r) {
    ScopedSpan span(&tracer, "storage.open");
    const auto t0 = Clock::now();
    std::map<std::string, std::shared_ptr<onex::storage::DurableEngine>> open;
    bool ok = true;
    for (const auto& [name, data] : spec.datasets) {
      auto opened = onex::storage::DurableEngine::Open(dir, name, spec.storage);
      if (!opened.ok()) {
        ok = false;
        break;
      }
      auto first = opened.value()->engine()->Execute(spec.probes.front(),
                                                     ExecContext{});
      ok = ok && first.ok();
      open[name] = std::move(opened).value();
    }
    reopen_s.push_back(Seconds(t0, Clock::now()));
    report->Op(ok, "reopen");
    if (!ok) return false;
    if (r > 0) continue;
    // The reopened data answers as the leader did and holds every
    // acknowledged append.
    std::map<std::string, std::shared_ptr<const Engine>> engines;
    for (const auto& [name, durable] : open) {
      engines[name] = durable->const_engine();
      replayed += durable->stats().replayed_records;
      if (engines[name]->num_series() != leader_series[name]) {
        report->Wrong("reopened " + name + " holds " +
                      std::to_string(engines[name]->num_series()) +
                      " series, leader held " +
                      std::to_string(leader_series[name]));
      }
    }
    MatchesLeader(reference, AnswerProbes(spec, engines), report,
                  "reopened");
    for (const Acked& a : acked) {
      const onex::Dataset& held = engines[a.dataset]->dataset();
      const bool present =
          a.index < held.size() &&
          std::equal(a.values->begin(), a.values->end(),
                     held[a.index].Subsequence(0, held[a.index].length())
                         .begin(),
                     held[a.index].Subsequence(0, held[a.index].length())
                         .end());
      if (present) {
        report->Op(true);
      } else {
        report->Wrong("acknowledged append " + std::to_string(a.index) +
                      " missing after reopen");
      }
    }
  }

  // ---------------------------------------------------- follower catch-up
  // A restarted leader over the same directory; its first MANIFEST cuts
  // the checkpoint outside the timed part, so every follower bootstraps
  // from the same artifact set.
  std::vector<double> catchup_s;
  double catchup_bytes = 0;
  {
    CatalogOptions options;
    options.data_dir = dir;
    options.durable = true;
    options.storage = spec.storage;
    auto catalog = std::make_shared<Catalog>(options);
    for (const auto& [name, data] : spec.datasets) catalog->Acquire(name);
    auto node = StartNode(catalog);
    report->Op(node != nullptr, "restart leader");
    if (node == nullptr) return false;
    auto control = Client::Connect("127.0.0.1", node->port());
    report->Op(control.ok() && control.value().FetchManifest().ok(),
               "manifest");
    for (int f = 0; f < spec.repeats; ++f) {
      const std::string follower_dir =
          args.work_dir + "/follower-" + std::to_string(f);
      fs::remove_all(follower_dir);
      fs::create_directories(follower_dir);
      ScopedSpan span(&tracer, "storage.bootstrap");
      const auto t0 = Clock::now();
      CatalogOptions follower_options;
      follower_options.data_dir = follower_dir;
      follower_options.durable = true;
      follower_options.read_only = true;
      follower_options.storage.background_checkpointer = false;
      auto follower = std::make_shared<Catalog>(follower_options);
      onex::server::ReplicaOptions replica;
      replica.leader_port = node->port();
      replica.data_dir = follower_dir;
      onex::server::ReplicaSyncer syncer(replica, follower.get());
      const auto synced = syncer.SyncOnce();
      std::map<std::string, std::shared_ptr<const Engine>> engines;
      bool ok = synced.ok();
      for (const auto& [name, data] : spec.datasets) {
        auto engine = follower->Acquire(name);
        ok = ok && engine.ok();
        if (engine.ok()) engines[name] = engine.value();
      }
      const Answers answers = ok ? AnswerProbes(spec, engines) : Answers{};
      catchup_s.push_back(Seconds(t0, Clock::now()));
      report->Op(ok, "follower bootstrap " + synced.ToString());
      if (!ok) return false;
      MatchesLeader(reference, answers, report,
                    "follower " + std::to_string(f));
      catchup_bytes = static_cast<double>(DirBytes(follower_dir));
      engines.clear();
      syncer.Stop();
      follower.reset();
      fs::remove_all(follower_dir);
    }
    node->Stop();
  }
  fs::remove_all(dir);

  // ------------------------------------------------------------ results
  // Each distinct read's best over the passes: the host's interference
  // only ever adds time, and on a shared machine it moves whole runs
  // (NOTES.md, Steadiness). A read that failed in any pass is infinite.
  const auto read_ms = BestLatenciesMs(load.reads, spec.reads.size());
  const auto every_read_ms = LatenciesMs(load.reads);
  std::vector<double> append_ms;
  for (const Sample& s : appends) {
    append_ms.push_back(s.ok ? Seconds(s.due, s.done) * 1e3
                             : std::numeric_limits<double>::infinity());
  }
  const double candidates =
      ScrapeValue(metrics_after, "onex_cascade_candidates_total") -
      ScrapeValue(metrics_before, "onex_cascade_candidates_total");
  const double evaluated =
      ScrapeValue(metrics_after, "onex_cascade_dtw_abandoned_total") +
      ScrapeValue(metrics_after, "onex_cascade_dtw_completed_total") -
      ScrapeValue(metrics_before, "onex_cascade_dtw_abandoned_total") -
      ScrapeValue(metrics_before, "onex_cascade_dtw_completed_total");
  // Per-layer metrics from the traced reads' stage and cascade lines.
  // Cascade figures are means of each read's own ratios over the reads
  // that reach the cascade, so one range scan (thousands of candidates,
  // no lower-bound stage) cannot hide how the typical read prunes.
  std::vector<double> queue_ms, overhead_ms, rep_ms, member_ms, knn_ms;
  std::vector<double> seen, pruned, kim, keogh, abandoned;
  std::map<std::string, std::vector<double>> pruned_by_kind;
  double rtt_sum = 0, unattributed_sum = 0;
  for (size_t i = 0; i < load.reads.size(); ++i) {
    const Sample& s = load.reads[i];
    if (!s.traced || !s.ok) continue;
    const TraceInfo t = ParseTrace(s.reply);
    if (!t.present) continue;
    const double rtt = Seconds(s.sent, s.done) * 1e3;
    queue_ms.push_back(t.queue_wait_ms);
    overhead_ms.push_back(rtt - t.queue_wait_ms - t.exec_ms);
    rep_ms.push_back(t.rep_scan_ms);
    member_ms.push_back(t.member_scan_ms);
    knn_ms.push_back(t.knn_ms);
    rtt_sum += rtt;
    unattributed_sum += std::max(0.0, rtt - t.queue_wait_ms - t.rep_scan_ms -
                                          t.member_scan_ms - t.knn_ms -
                                          t.refine_ms);
    seen.push_back(static_cast<double>(t.seen));
    if (t.seen == 0) continue;
    const double n = static_cast<double>(t.seen);
    pruned.push_back(1.0 - static_cast<double>(t.dtw_evaluated) / n);
    pruned_by_kind[ReadKind(spec.reads[i % spec.reads.size()])].push_back(
        pruned.back());
    kim.push_back(static_cast<double>(t.kim_pruned) / n);
    keogh.push_back(static_cast<double>(t.keogh_pruned) / n);
    abandoned.push_back(static_cast<double>(t.early_abandoned) / n);
  }
  const double late_p99 = Percentile(load.late_ms, 99);
  // The human-readable summary: pruning ratio and generator lateness sit
  // next to the read latency, so a faster read that stopped pruning, or
  // a late generator, shows at once.
  // pruned_candidate_share is the METRICS delta over every candidate of
  // the load; pruning_ratio (traced runs) is the per-read mean above.
  // every_read_* is over every sample of every pass, not the best.
  std::printf(
      "%s seed=%llu reads=%zu distinct=%zu read_p50_ms=%.3f "
      "read_p99_ms=%.3f every_read_p50_ms=%.3f every_read_p99_ms=%.3f "
      "pruning_ratio=%s pruned_candidate_share=%.3f "
      "generator_late_p99_ms=%.3f appends=%zu append_p50_ms=%.3f\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      load.reads.size(), read_ms.size(), Percentile(read_ms, 50),
      Percentile(read_ms, 99), Percentile(every_read_ms, 50),
      Percentile(every_read_ms, 99),
      args.trace ? std::to_string(Mean(pruned)).c_str() : "untraced",
      candidates > 0 ? 1.0 - evaluated / candidates : 0.0, late_p99,
      appends.size(), Percentile(append_ms, 50));

  if (!args.trace) {
    // Reopen and catch-up repeat one fixed task, so their best is their
    // cost; set-up is the median of its repeats.
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("read_p50_ms", Percentile(read_ms, 50), "ms");
    report->Metric("read_p99_ms", Percentile(read_ms, 99), "ms");
    report->Metric("reopen_s", *std::min_element(reopen_s.begin(),
                                                 reopen_s.end()), "s");
    report->Metric("catchup_s", *std::min_element(catchup_s.begin(),
                                                  catchup_s.end()), "s");
    report->Metric("disk_bytes_per_user_byte",
                   disk_bytes / static_cast<double>(user_bytes), "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return true;
  }

  const double traced_p50 = Percentile(LatenciesMs(load.reads, true), 50);
  const double untraced_p50 = Percentile(LatenciesMs(load.reads, false), 50);
  const double cpu_s = cpu_after.cpu_user_seconds + cpu_after.cpu_sys_seconds -
                       cpu_before.cpu_user_seconds - cpu_before.cpu_sys_seconds;
  const size_t n_reads = std::max<size_t>(1, load.reads.size());

  report->Metric("distance.dtw_ns_per_cell", kernels.dtw_ns_per_cell, "ns");
  report->Metric("distance.lb_keogh_ns_per_point",
                 kernels.lb_keogh_ns_per_point, "ns");
  report->Metric("distance.lb_kim_ns_per_call", kernels.lb_kim_ns_per_call,
                 "ns");
  report->Metric("distance.ed_ns_per_point", kernels.ed_ns_per_point, "ns");
  report->Metric("core.build_s", Median(build_s), "s");
  report->Metric("core.groups", static_cast<double>(stack->groups), "count");
  report->Metric("core.base_mb", stack->base_mb, "MB");
  report->Metric("core.rep_scan_ms", Mean(rep_ms), "ms");
  report->Metric("core.member_scan_ms", Mean(member_ms), "ms");
  report->Metric("core.knn_ms", Mean(knn_ms), "ms");
  report->Metric("core.candidates_per_read", Mean(seen), "count");
  report->Metric("core.pruning_ratio", Mean(pruned), "ratio");
  for (const char* kind : {"q1_exact", "q1_any", "q1k", "q1_range"}) {
    report->Metric(std::string("core.pruning_ratio_") + kind,
                   Mean(pruned_by_kind[kind]), "ratio");
  }
  report->Metric("core.pruned_kim_share", Mean(kim), "ratio");
  report->Metric("core.pruned_keogh_share", Mean(keogh), "ratio");
  report->Metric("core.dtw_abandoned_share", Mean(abandoned), "ratio");
  report->Metric("core.append_apply_ms", Median(apply_ms), "ms");
  report->Metric("api.execute_p50_ms", Percentile(execute_ms, 50), "ms");
  report->Metric("api.execute_p99_ms", Percentile(execute_ms, 99), "ms");
  report->Metric("api.unattributed_share",
                 rtt_sum > 0 ? unattributed_sum / rtt_sum : 0.0, "ratio");
  report->Metric("server.queue_wait_p50_ms", Percentile(queue_ms, 50), "ms");
  report->Metric("server.queue_wait_p99_ms", Percentile(queue_ms, 99), "ms");
  report->Metric("server.shed", static_cast<double>(shed), "count");
  report->Metric("server.overhead_p50_ms", Percentile(overhead_ms, 50), "ms");
  report->Metric("server.cpu_ms_per_read", cpu_s * 1e3 / n_reads, "ms");
  report->Metric("router.hop_p50_ms", Percentile(routing.hop_ms, 50), "ms");
  report->Metric("router.merge_us", Median(routing.merge_us), "us");
  report->Metric("router.legs_per_read", routing.legs_per_read, "count");
  report->Metric("router.failovers", static_cast<double>(router_failovers),
                 "count");
  report->Metric("router.rss_growth_mb", rss_after - rss_before, "MB");
  report->Metric("storage.wal_bytes_per_user_byte",
                 watch.wal_bytes_per_user_byte, "ratio");
  report->Metric("storage.checkpoints",
                 static_cast<double>(leader_storage.checkpoints), "count");
  report->Metric("storage.checkpoint_lock_hold_ms", watch.lock_hold_ms_max,
                 "ms");
  report->Metric("storage.delta_bytes",
                 static_cast<double>(watch.delta_bytes_max), "bytes");
  report->Metric("storage.chain_length_max",
                 static_cast<double>(watch.chain_length_max), "count");
  report->Metric("storage.replayed_records", static_cast<double>(replayed),
                 "count");
  report->Metric("storage.catchup_bytes", catchup_bytes, "bytes");
  report->Metric("bench.generator_late_p99_ms", late_p99, "ms");
  report->Metric("bench.trace_overhead_pct",
                 untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100
                                  : 0.0,
                 "%");
  tracer.Write(args.work_dir + "/spans.jsonl");
  return true;
}

}  // namespace perfbench
