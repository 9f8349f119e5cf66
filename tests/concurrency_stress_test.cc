// Copyright 2026 The ONEX Reproduction Authors.
// Concurrency regression tests for the windows the thread-safety
// migration closed, written to be meaningful under ThreadSanitizer
// (the `thread-sanitizer` CI job runs this binary with lock-order
// checking compiled in) and still fast enough for the tier-1 suite:
//
//   - checkpointer vs. concurrent appends and queries: the background
//     checkpointer serializes a pinned version and rotates the WAL
//     (WAL mutex) while many threads append (engine append mutex +
//     AppendSink + cp notify) and query versions the appends retire —
//     the kCatalog < kStorageCheckpoint < kEngineAppend < kStorageWal <
//     kStorageCp chain. Under ASan a query reading a freed version
//     fails here.
//   - client disconnect vs. in-flight cancel: Close() used to read the
//     demux pointer unguarded while a racing Cancel()/Submit ran.
//   - Server::Stop vs. live sessions: Stop() used to iterate
//     session_threads_ unlocked, racing the accept loop's reap.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "api/engine.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/storage.h"

namespace onex {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSeries = 10;
constexpr size_t kLength = 24;

Engine BuildSmallEngine(uint64_t seed) {
  GenOptions gen;
  gen.num_series = kSeries;
  gen.length = kLength;
  gen.seed = seed;
  Dataset d = MakeItalyPower(gen);
  MinMaxNormalize(&d);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, kLength, 8};
  auto built = Engine::Build(std::move(d), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TimeSeries RampSeries(int tag) {
  std::vector<double> values(kLength);
  for (size_t j = 0; j < values.size(); ++j) {
    values[j] = 0.01 * static_cast<double>(tag % 50) +
                0.9 * static_cast<double>(j) /
                    static_cast<double>(values.size() - 1);
  }
  return TimeSeries(std::move(values), tag);
}

class ScratchDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("concurrency_stress_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

// ---------------------------------------- checkpointer vs. appenders.

TEST_F(ScratchDirTest, CheckpointerRacesConcurrentAppends) {
  storage::StorageOptions options;
  // Rotate constantly: every few appends crosses the threshold, so the
  // checkpointer keeps rotating the WAL mid-stream.
  options.checkpoint_wal_records = 4;
  options.checkpoint_wal_bytes = 0;
  options.background_checkpointer = true;
  options.sync_appends = false;  // Throughput.

  auto created = storage::DurableEngine::Create(
      dir_.string(), "race", BuildSmallEngine(42), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto durable = std::move(created).value();

  constexpr int kThreads = 4;
  constexpr int kAppendsPerThread = 24;
  std::vector<std::thread> appenders;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    appenders.emplace_back([&, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        const int tag = t * kAppendsPerThread + i;
        if (!durable->Append(RampSeries(tag)).ok()) {
          failures.fetch_add(1);
        }
        if (i % 8 == 0) {
          // Query versions while the other appenders retire them.
          const TimeSeries probe = RampSeries(tag);
          const auto values = probe.Subsequence(0, 8);
          auto answer = durable->engine()->Execute(
              BestMatchRequest{std::vector<double>(values.begin(),
                                                   values.end()),
                               8},
              ExecContext{});
          if (!answer.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  // Explicit checkpoints race the background ones (checkpoint_mutex_
  // serializes them; both then rotate under the WAL mutex).
  std::thread explicit_checkpointer([&] {
    for (int i = 0; i < 8; ++i) {
      (void)durable->Checkpoint();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& appender : appenders) appender.join();
  explicit_checkpointer.join();

  EXPECT_EQ(failures.load(), 0);
  const size_t expected = kSeries + kThreads * kAppendsPerThread;
  EXPECT_EQ(durable->engine()->num_series(), expected);

  // Every acknowledged append must survive a reopen, no matter where
  // the rotation churn left the snapshot/WAL pair.
  durable.reset();
  auto reopened = storage::DurableEngine::Open(dir_.string(), "race");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->engine()->num_series(), expected);
}

// ------------------------------- catalog eviction vs. durable appends.

TEST_F(ScratchDirTest, CatalogEvictionRacesAppendsOnDurableEntries) {
  server::CatalogOptions options;
  options.data_dir = dir_.string();
  options.durable = true;
  options.max_open_engines = 1;  // Every Acquire evicts the other entry.
  options.storage.sync_appends = false;
  options.storage.checkpoint_wal_records = 8;
  server::Catalog catalog(options);
  catalog.Register("a", BuildSmallEngine(1));
  catalog.Register("b", BuildSmallEngine(2));

  // Two threads appending to different datasets force the pre-eviction
  // checkpoint of a dirty victim (catalog mutex -> checkpoint mutex ->
  // WAL mutex) to race the other dataset's appends.
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      const std::string name = t == 0 ? "a" : "b";
      for (int i = 0; i < 16; ++i) {
        if (!catalog.Append(name, RampSeries(t * 100 + i)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread reader([&] {
    for (int i = 0; i < 16; ++i) {
      auto acquired = catalog.Acquire(i % 2 == 0 ? "a" : "b");
      if (acquired.ok()) (void)acquired.value()->num_series();
    }
  });
  for (std::thread& writer : writers) writer.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0);

  for (const std::string& name : {"a", "b"}) {
    auto acquired = catalog.Acquire(name);
    ASSERT_TRUE(acquired.ok()) << acquired.status().ToString();
    EXPECT_EQ(acquired.value()->num_series(), kSeries + 16);
  }
}

// ------------------------------------ serving-layer shutdown windows.

class StressServerTest : public ::testing::Test {
 protected:
  void StartServer() {
    catalog_ = std::make_shared<server::Catalog>(server::CatalogOptions{});
    catalog_->Register("power", BuildSmallEngine(42));
    server::ServerOptions options;
    options.num_workers = 2;
    options.default_dataset = "power";
    auto started = server::Server::Start(std::move(options), catalog_);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(started).value();
  }

  server::Client Connect() {
    auto client = server::Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  QueryRequest SomeQuery() {
    std::vector<double> query(8);
    for (size_t i = 0; i < query.size(); ++i) {
      query[i] = static_cast<double>(i) / 7.0;
    }
    return BestMatchRequest{std::move(query), 8};
  }

  std::shared_ptr<server::Catalog> catalog_;
  std::unique_ptr<server::Server> server_;
};

TEST_F(StressServerTest, ClientCloseRacesInflightCancels) {
  StartServer();
  // Close() used to read demux_ without its mutex; a Cancel() (through
  // the handle's weak_ptr) and a concurrent Submit raced it. Every
  // status outcome is legal here — the invariant under test is that
  // the teardown is race- and crash-free and never wedges.
  for (int round = 0; round < 8; ++round) {
    server::Client client = Connect();
    std::vector<server::Client::Handle> handles;
    for (int i = 0; i < 6; ++i) {
      auto submitted = client.Submit(SomeQuery());
      if (submitted.ok()) handles.push_back(std::move(submitted).value());
    }
    std::thread canceller([&handles] {
      for (auto& handle : handles) (void)handle.Cancel();
    });
    client.Close();
    canceller.join();
    for (auto& handle : handles) (void)handle.Wait();
  }
}

TEST_F(StressServerTest, StopRacesLiveSessionsAndReap) {
  StartServer();
  // Keep connections churning (so the accept loop reaps finished
  // session threads) while queries are in flight, then Stop() under
  // them — the path that used to join session_threads_ unlocked.
  std::atomic<bool> done{false};
  std::thread churn([&] {
    while (!done.load()) {
      auto client = server::Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) break;  // Server stopped: expected.
      (void)client.value().Execute(SomeQuery());
    }
  });
  std::vector<server::Client> held;
  for (int i = 0; i < 3; ++i) {
    held.push_back(Connect());
    (void)held.back().Submit(SomeQuery());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server_->Stop();
  done.store(true);
  churn.join();
}

}  // namespace
}  // namespace onex
