// Server-level tests for the v6 operational introspection tier:
// INSPECT shows a live query's row (with its stage) while the query
// runs; HEALTH separates liveness from readiness and flips readiness
// on a sticky WAL-write failure, a queue saturated past the degrade
// threshold (BEFORE shedding starts), and a watchdog-stalled worker;
// the stall watchdog flags a wedged job exactly once and feeds the
// onex_watchdog_stalls_total counter; a running query the overload
// shedder cancelled still counts as busy until its worker finishes;
// and a v5-vocabulary session sees
// no v6 token anywhere in its replies — the introspection tier is a
// strict superset, invisible until asked for.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "datagen/registry.h"
#include "dataset/normalize.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace onex {
namespace server {
namespace {

Engine BuildEngine(size_t n, uint64_t seed) {
  GenOptions gen;
  gen.num_series = n;
  gen.length = 24;
  gen.seed = seed;
  auto made = MakeDatasetByName("ECG", gen);
  EXPECT_TRUE(made.ok());
  Dataset d = std::move(made).value();
  MinMaxNormalize(&d);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 24, 8};
  auto built = Engine::Build(std::move(d), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// A latch the on_job_start hook parks on: workers block inside their
/// claimed job (probe active, stage=queue) until the test releases
/// them — a deterministic "query in flight right now".
class JobGate {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++blocked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void WaitForBlocked(size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return blocked_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t blocked_ = 0;
  bool open_ = false;
};

class IntrospectionTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options,
                   CatalogOptions catalog_options = CatalogOptions{}) {
    catalog_ = std::make_shared<Catalog>(catalog_options);
    if (catalog_options.data_dir.empty()) {
      catalog_->Register("ecg", BuildEngine(12, 7));
    }
    auto started = Server::Start(std::move(options), catalog_);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(started).value();
  }

  Client Connect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  static std::string QueryLine() {
    return "q1k 3 any 0.1,0.4,0.9,0.3,0.6,0.2,0.8,0.5";
  }

  std::shared_ptr<Catalog> catalog_;
  std::unique_ptr<Server> server_;
};

TEST_F(IntrospectionTest, InspectShowsLiveQueryRowWithStage) {
  auto gate = std::make_shared<JobGate>();
  ServerOptions options;
  options.num_workers = 1;
  options.stall_ms = 0;  // No watchdog noise in this test.
  options.on_job_start = [gate] { gate->Block(); };
  StartServer(std::move(options));

  Client runner = Connect();
  ASSERT_TRUE(runner.Roundtrip("use ecg").ok());
  auto handle = runner.Submit(
      QueryRequest(KSimilarRequest{{0.1, 0.4, 0.9, 0.3, 0.6, 0.2}, 3, 0}),
      Client::SubmitOptions{});
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  gate->WaitForBlocked(1);  // The worker holds the job, probe claimed.

  Client inspector = Connect();
  auto reply = inspector.Roundtrip("inspect");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().kind, "Inspect");
  EXPECT_EQ(reply.value().header.at("queries"), "1");
  EXPECT_EQ(reply.value().header.at("workers_busy"), "1");
  EXPECT_EQ(reply.value().header.at("workers_total"), "1");
  EXPECT_EQ(reply.value().header.at("stalled_workers"), "0");

  // Exactly one live `query` row, naming what the worker is holding.
  std::vector<std::string> query_rows;
  for (const std::string& line : reply.value().payload) {
    if (line.rfind("query ", 0) == 0) query_rows.push_back(line);
  }
  ASSERT_EQ(query_rows.size(), 1u) << "payload:\n" << reply.value().payload.size();
  const auto row = ParseKeyValues(query_rows[0]);
  EXPECT_EQ(row.at("kind"), "KSimilar");
  EXPECT_EQ(row.at("dataset"), "ecg");
  EXPECT_EQ(row.at("stage"), "queue");  // Parked before Execute began.
  EXPECT_EQ(row.at("stalled"), "0");
  EXPECT_EQ(row.at("deadline_remaining_us"), "none");
  EXPECT_NE(row.at("id"), "0") << "tagged submit carries its wire id";

  // Catalog + session rows ride along.
  bool saw_catalog = false;
  for (const std::string& line : reply.value().payload) {
    if (line.rfind("catalog name=ecg", 0) == 0) saw_catalog = true;
  }
  EXPECT_TRUE(saw_catalog);

  gate->Open();
  auto result = handle.value().Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Drained: the same verb now reports an idle server.
  auto after = inspector.Roundtrip("inspect");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().header.at("queries"), "0");
  EXPECT_EQ(after.value().header.at("workers_busy"), "0");
}

TEST_F(IntrospectionTest, HealthIsReadyOnAnIdleServer) {
  ServerOptions options;
  options.stall_ms = 0;
  StartServer(std::move(options));
  Client client = Connect();
  auto reply = client.Roundtrip("health");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().kind, "Health");
  EXPECT_EQ(reply.value().header.at("live"), "1");
  EXPECT_EQ(reply.value().header.at("ready"), "1");
  // All four gates present and passing.
  std::map<std::string, std::string> checks;
  for (const std::string& line : reply.value().payload) {
    const auto kv = ParseKeyValues(line);
    if (kv.count("name")) checks[kv.at("name")] = kv.at("ok");
  }
  EXPECT_EQ(checks.size(), 4u);
  for (const char* name :
       {"wal_writable", "checkpoint_age", "queue", "workers"}) {
    ASSERT_TRUE(checks.count(name)) << name;
    EXPECT_EQ(checks.at(name), "1") << name;
  }
}

TEST_F(IntrospectionTest, HealthDegradesOnSaturatedQueueBeforeShedding) {
  auto gate = std::make_shared<JobGate>();
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 5;  // degrade_at = 4, shed_at = 5.
  options.stall_ms = 0;
  options.on_job_start = [gate] { gate->Block(); };
  StartServer(std::move(options));

  Client runner = Connect();
  ASSERT_TRUE(runner.Roundtrip("use ecg").ok());
  std::vector<Client::Handle> handles;
  // 1 running (blocked in the gate) + 4 queued = depth 4 = degrade_at.
  for (int i = 0; i < 5; ++i) {
    auto handle = runner.Submit(
        QueryRequest(KSimilarRequest{{0.1, 0.4, 0.9, 0.3, 0.6, 0.2}, 3, 0}),
        Client::SubmitOptions{});
    ASSERT_TRUE(handle.ok()) << i << ": " << handle.status().ToString();
    handles.push_back(std::move(handle).value());
  }
  gate->WaitForBlocked(1);

  // Submit only confirms the lines were WRITTEN; the session thread
  // enqueues them asynchronously. Wait until the queue really holds
  // the four waiting jobs before judging readiness.
  Client prober = Connect();
  for (int i = 0; i < 500; ++i) {
    auto inspect = prober.Roundtrip("inspect");
    ASSERT_TRUE(inspect.ok());
    if (inspect.value().header.at("queue_depth") == "4") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  auto reply = prober.Roundtrip("health");
  ASSERT_TRUE(reply.ok());
  // Degraded — but NOT shedding yet: the whole point of the early
  // readiness gate is that a router can drain the node while it still
  // answers. A 6th query would be the first one at risk.
  EXPECT_EQ(reply.value().header.at("live"), "1");
  EXPECT_EQ(reply.value().header.at("ready"), "0");
  bool queue_failed = false;
  for (const std::string& line : reply.value().payload) {
    const auto kv = ParseKeyValues(line);
    if (kv.count("name") && kv.at("name") == "queue") {
      queue_failed = kv.at("ok") == "0";
      EXPECT_EQ(kv.at("depth"), "4");
      EXPECT_EQ(kv.at("degrade_at"), "4");
      EXPECT_EQ(kv.at("shed_at"), "5");
    }
  }
  EXPECT_TRUE(queue_failed);

  gate->Open();
  for (auto& handle : handles) ASSERT_TRUE(handle.Wait().ok());
  auto after = prober.Roundtrip("health");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().header.at("ready"), "1") << "recovers when drained";
}

TEST_F(IntrospectionTest, HealthFailsWhenWalBecomesUnwritable) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("onex_introspection_wal_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  // Shared (not by-ref): the catalog outlives this test body, and its
  // teardown must never chase a dead stack slot.
  auto inject = std::make_shared<std::atomic<bool>>(false);
  CatalogOptions catalog_options;
  catalog_options.data_dir = dir.string();
  catalog_options.durable = true;
  catalog_options.storage.background_checkpointer = false;
  catalog_options.storage.wal_fault_injection = [inject]() {
    return inject->load() ? Status::IOError("injected WAL failure")
                          : Status::OK();
  };

  ServerOptions options;
  options.stall_ms = 0;
  StartServer(std::move(options), catalog_options);
  catalog_->Register("ecg", BuildEngine(10, 3));

  Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use ecg").ok());

  // Healthy while the WAL accepts appends...
  auto appended = catalog_->Append(
      "ecg", TimeSeries(std::vector<double>(24, 0.5), 1));
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  auto before = client.Roundtrip("health");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().header.at("ready"), "1");

  // ...then the disk "fails": the append errors, the flag sticks, and
  // readiness drops while liveness stays up.
  inject->store(true);
  EXPECT_FALSE(
      catalog_->Append("ecg", TimeSeries(std::vector<double>(24, 0.5), 1))
          .ok());
  auto during = client.Roundtrip("health");
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during.value().header.at("live"), "1");
  EXPECT_EQ(during.value().header.at("ready"), "0");
  bool wal_failed = false;
  for (const std::string& line : during.value().payload) {
    const auto kv = ParseKeyValues(line);
    if (kv.count("name") && kv.at("name") == "wal_writable") {
      wal_failed = kv.at("ok") == "0";
    }
  }
  EXPECT_TRUE(wal_failed);

  // A successful append clears the sticky flag: the disk came back.
  inject->store(false);
  ASSERT_TRUE(
      catalog_->Append("ecg", TimeSeries(std::vector<double>(24, 0.5), 1))
          .ok());
  auto after = client.Roundtrip("health");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().header.at("ready"), "1");

  server_->Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(IntrospectionTest, WatchdogFlagsStalledWorkerOnce) {
  auto gate = std::make_shared<JobGate>();
  ServerOptions options;
  options.num_workers = 1;
  options.stall_ms = 40;           // A blocked job stalls fast...
  options.watchdog_period_ms = 10;  // ...and the watchdog looks often.
  options.on_job_start = [gate] { gate->Block(); };
  StartServer(std::move(options));

  Client runner = Connect();
  ASSERT_TRUE(runner.Roundtrip("use ecg").ok());
  auto handle = runner.Submit(
      QueryRequest(KSimilarRequest{{0.1, 0.4, 0.9, 0.3, 0.6, 0.2}, 3, 0}),
      Client::SubmitOptions{});
  ASSERT_TRUE(handle.ok());
  gate->WaitForBlocked(1);

  // Poll until the watchdog notices (bounded: ~100 periods).
  Client prober = Connect();
  bool stalled_seen = false;
  for (int i = 0; i < 200 && !stalled_seen; ++i) {
    auto health = prober.Roundtrip("health");
    ASSERT_TRUE(health.ok());
    for (const std::string& line : health.value().payload) {
      const auto kv = ParseKeyValues(line);
      if (kv.count("name") && kv.at("name") == "workers" &&
          kv.at("ok") == "0") {
        EXPECT_EQ(kv.at("stalled"), "1");
        stalled_seen = true;
      }
    }
    if (!stalled_seen) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(stalled_seen) << "watchdog never flagged the wedged worker";

  // The INSPECT row carries the flag too.
  auto inspect = prober.Roundtrip("inspect");
  ASSERT_TRUE(inspect.ok());
  EXPECT_EQ(inspect.value().header.at("stalled_workers"), "1");
  bool row_stalled = false;
  for (const std::string& line : inspect.value().payload) {
    if (line.rfind("query ", 0) == 0) {
      row_stalled = ParseKeyValues(line).at("stalled") == "1";
    }
  }
  EXPECT_TRUE(row_stalled);

  gate->Open();
  ASSERT_TRUE(handle.value().Wait().ok());

  // The latch counts each stalled job exactly once, and the gauge
  // clears when the job finishes (the counter does not).
  auto metrics = prober.Roundtrip("metrics");
  ASSERT_TRUE(metrics.ok());
  bool counter_seen = false;
  bool gauge_zero = false;
  for (const std::string& line : metrics.value().payload) {
    if (line == "onex_watchdog_stalls_total 1") counter_seen = true;
    if (line == "onex_stalled_workers 0") gauge_zero = true;
  }
  EXPECT_TRUE(counter_seen) << "expected onex_watchdog_stalls_total 1";
  EXPECT_TRUE(gauge_zero) << "gauge must clear once the job completes";

  auto health = prober.Roundtrip("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().header.at("ready"), "1");
}

TEST_F(IntrospectionTest, ShedVictimStaysBusyUntilItsWorkerFinishes) {
  // The overload shedder cancels the oldest over-deadline running query
  // to admit one more job. The victim's worker keeps executing until it
  // notices the cancel, so INSPECT must still count it as busy.
  auto gate = std::make_shared<JobGate>();
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.stall_ms = 0;
  options.on_job_start = [gate] { gate->Block(); };
  StartServer(std::move(options));

  Client runner = Connect();
  ASSERT_TRUE(runner.Roundtrip("use ecg").ok());
  const QueryRequest query(
      KSimilarRequest{{0.1, 0.4, 0.9, 0.3, 0.6, 0.2}, 3, 0});
  Client::SubmitOptions with_deadline;
  with_deadline.deadline_ms = 20;
  auto a = runner.Submit(query, with_deadline);  // Held in the gate.
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  gate->WaitForBlocked(1);
  auto b = runner.Submit(query, Client::SubmitOptions{});  // Fills the queue.
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  Client prober = Connect();
  auto wait_for_depth = [&](const std::string& depth) {
    for (int i = 0; i < 500; ++i) {
      auto inspect = prober.Roundtrip("inspect");
      if (inspect.ok() && inspect.value().header.at("queue_depth") == depth) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "queue never reached depth " << depth;
  };
  wait_for_depth("1");
  std::this_thread::sleep_for(std::chrono::milliseconds(40));  // Past A's.

  // C is admitted one over the bound by cancelling A, which is still
  // parked in its worker.
  auto c = runner.Submit(query, Client::SubmitOptions{});
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  wait_for_depth("2");
  auto inspect = prober.Roundtrip("inspect");
  ASSERT_TRUE(inspect.ok());
  EXPECT_EQ(inspect.value().header.at("queries"), "1");
  EXPECT_EQ(inspect.value().header.at("workers_busy"), "1");

  gate->Open();
  auto a_reply = a.value().Wait();
  ASSERT_TRUE(a_reply.ok()) << a_reply.status().ToString();
  EXPECT_TRUE(!a_reply.value().ok || a_reply.value().partial())
      << "the shed victim cannot complete whole";
  for (Client::Handle* handle : {&b.value(), &c.value()}) {
    auto reply = handle->Wait();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply.value().ok) << reply.value().message;
  }
}

TEST_F(IntrospectionTest, V5VocabularySessionSeesNoV6Tokens) {
  // A client that only ever speaks the v5 vocabulary must get replies
  // with no v6 token in them — INSPECT/HEALTH are additive verbs, and
  // nothing leaks into query, stats, list, ping, or metrics-free
  // traffic. (The greeting version bump is the protocol's documented
  // superset signal; everything else is byte-compatible.)
  ServerOptions options;
  StartServer(std::move(options));
  Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use ecg").ok());

  const std::vector<std::string> v5_lines = {
      QueryLine(), "stats", "list", "ping",
      "trace=1 " + QueryLine(),
  };
  for (const std::string& line : v5_lines) {
    auto reply = client.Roundtrip(line);
    ASSERT_TRUE(reply.ok()) << line << ": " << reply.status().ToString();
    std::string all = reply.value().kind;
    for (const auto& [key, value] : reply.value().header) {
      all += " " + key + "=" + value;
    }
    for (const std::string& payload_line : reply.value().payload) {
      all += "\n" + payload_line;
    }
    for (const char* token :
         {"Inspect", "Health", "stalled", "watchdog", "wal_writable",
          "degrade_at", "deadline_remaining_us"}) {
      EXPECT_EQ(all.find(token), std::string::npos)
          << "v6 token '" << token << "' leaked into reply for: " << line
          << "\n" << all;
    }
  }

  // And `help` DOES advertise the new verbs — discoverability is the
  // one sanctioned leak.
  auto help = client.Roundtrip("help");
  ASSERT_TRUE(help.ok());
  std::string help_text;
  for (const std::string& payload_line : help.value().payload) {
    help_text += payload_line + "\n";
  }
  EXPECT_NE(help_text.find("inspect"), std::string::npos);
  EXPECT_NE(help_text.find("health"), std::string::npos);
}

}  // namespace
}  // namespace server
}  // namespace onex
