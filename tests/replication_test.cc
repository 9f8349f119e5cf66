// Tests for the v7 replication foundation: the consistent-cut manifest
// (render/parse round trip, the MANIFEST verb cutting a fresh
// checkpoint per request, the on-disk onex_manifest.json), the FETCH
// artifact stream (CRC-verified chunked binary framing, traversal and
// cross-dataset rejection, a fake leader's absurd declared size), the
// follower loop (ReplicaSyncer bootstrapping from a live leader,
// applying incremental deltas, converging byte-identically — including
// across a follower restart), the read-only follower catalog (ERR
// READ_ONLY on mutation verbs), and the v7 cross-session admin CANCEL
// with its structured NOT_FOUND forms. The v6 grammar regression at the
// bottom pins the bytes of a pre-v7 session so the version bump is
// provably a strict superset.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/replica.h"
#include "server/server.h"
#include "storage/manifest.h"
#include "storage/storage.h"
#include "util/crc32.h"

namespace onex {
namespace server {
namespace {

namespace fs = std::filesystem;

Engine BuildSmallEngine(uint64_t seed, size_t num_series = 10) {
  GenOptions gen;
  gen.num_series = num_series;
  gen.length = 24;
  gen.seed = seed;
  Dataset d = MakeItalyPower(gen);
  MinMaxNormalize(&d);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 24, 8};
  auto built = Engine::Build(std::move(d), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TimeSeries MakeAppendSeries(uint64_t seed) {
  std::vector<double> values(24);
  double level = 0.3 + 0.01 * static_cast<double>(seed % 40);
  for (double& v : values) {
    level += (seed * 2654435761u % 17) * 1e-3 - 0.008;
    if (level < 0.0) level = 0.0;
    if (level > 1.0) level = 1.0;
    v = level;
    ++seed;
  }
  return TimeSeries(std::move(values), static_cast<int>(seed % 7));
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ------------------------------------------- manifest render / parse

TEST(ManifestFormat, WireRenderParsesBackIdentically) {
  storage::Manifest manifest;
  manifest.created_unix_s = 1754650000;
  storage::ManifestEntry entry;
  entry.name = "ecg";
  entry.series = 12;
  entry.live_series = 14;
  entry.base_file = "ecg.onex";
  entry.base_bytes = 4096;
  entry.base_crc = 0xDEADBEEF;
  entry.deltas.push_back({"ecg.onex.delta.1", 128, 0x12345678});
  entry.deltas.push_back({"ecg.onex.delta.2", 256, 0x9ABCDEF0});
  entry.wal_file = "ecg.wal";
  entry.wal_bytes = 64;
  manifest.entries.push_back(entry);
  storage::ManifestEntry bare;
  bare.name = "power";
  bare.series = 5;
  bare.live_series = 5;
  bare.base_file = "power.onex";
  bare.base_bytes = 2048;
  bare.base_crc = 7;
  bare.wal_file = "power.wal";
  bare.wal_bytes = 16;
  manifest.entries.push_back(bare);

  const std::string block = RenderManifestBlock(manifest);
  std::vector<std::string> lines;
  {
    std::istringstream in(block);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.back(), ".");
  lines.pop_back();
  auto parsed_block = ParseResponseBlock(lines);
  ASSERT_TRUE(parsed_block.ok()) << parsed_block.status().ToString();
  ASSERT_TRUE(parsed_block.value().ok);
  EXPECT_EQ(parsed_block.value().kind, "Manifest");

  auto parsed = ParseManifestPayload(parsed_block.value().payload,
                                     parsed_block.value().header);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const storage::Manifest& got = parsed.value();
  EXPECT_EQ(got.version, storage::kManifestFormatVersion);
  EXPECT_EQ(got.created_unix_s, manifest.created_unix_s);
  ASSERT_EQ(got.entries.size(), 2u);
  EXPECT_EQ(got.entries[0].name, "ecg");
  EXPECT_EQ(got.entries[0].series, 12u);
  EXPECT_EQ(got.entries[0].live_series, 14u);
  EXPECT_EQ(got.entries[0].base_file, "ecg.onex");
  EXPECT_EQ(got.entries[0].base_bytes, 4096u);
  EXPECT_EQ(got.entries[0].base_crc, 0xDEADBEEFu);
  ASSERT_EQ(got.entries[0].deltas.size(), 2u);
  EXPECT_EQ(got.entries[0].deltas[1].file, "ecg.onex.delta.2");
  EXPECT_EQ(got.entries[0].deltas[1].bytes, 256u);
  EXPECT_EQ(got.entries[0].deltas[1].crc, 0x9ABCDEF0u);
  EXPECT_EQ(got.entries[0].wal_file, "ecg.wal");
  EXPECT_EQ(got.entries[0].wal_bytes, 64u);
  EXPECT_EQ(got.entries[1].name, "power");
  EXPECT_TRUE(got.entries[1].deltas.empty());
}

TEST(ManifestFormat, ParseRejectsOutOfOrderDeltaChain) {
  storage::Manifest manifest;
  storage::ManifestEntry entry;
  entry.name = "a";
  entry.base_file = "a.onex";
  entry.wal_file = "a.wal";
  entry.deltas.push_back({"a.onex.delta.1", 1, 1});
  manifest.entries.push_back(entry);
  const std::string block = RenderManifestBlock(manifest);
  std::vector<std::string> lines;
  std::istringstream in(block);
  std::string line;
  while (std::getline(in, line)) {
    if (line == ".") break;
    // Corrupt the chain ordering: k=1 becomes k=3.
    size_t at = line.find("k=1");
    if (at != std::string::npos) line.replace(at, 3, "k=3");
    lines.push_back(line);
  }
  auto parsed_block = ParseResponseBlock(lines);
  ASSERT_TRUE(parsed_block.ok());
  auto parsed = ParseManifestPayload(parsed_block.value().payload,
                                     parsed_block.value().header);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
}

// ------------------------------------------------ leader-side fixture

/// A durable leader server over a temp data directory, plus helpers to
/// stand up follower catalogs/syncers over a second directory.
class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string unique =
        std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    leader_dir_ = fs::path(::testing::TempDir()) / ("repl_leader_" + unique);
    follower_dir_ =
        fs::path(::testing::TempDir()) / ("repl_follower_" + unique);
    fs::create_directories(leader_dir_);
    fs::create_directories(follower_dir_);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(leader_dir_, ec);
    fs::remove_all(follower_dir_, ec);
  }

  void StartLeader(ServerOptions options = {}) {
    CatalogOptions catalog_options;
    catalog_options.data_dir = leader_dir_.string();
    catalog_options.durable = true;
    catalog_options.storage = leader_storage_;
    catalog_options.storage.background_checkpointer = false;
    leader_catalog_ = std::make_shared<Catalog>(catalog_options);
    leader_catalog_->Register("power", BuildSmallEngine(42));
    auto started = Server::Start(std::move(options), leader_catalog_);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    leader_ = std::move(started).value();
  }

  Client ConnectLeader() {
    auto client = Client::Connect("127.0.0.1", leader_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::shared_ptr<Catalog> MakeFollowerCatalog() {
    CatalogOptions catalog_options;
    catalog_options.data_dir = follower_dir_.string();
    catalog_options.durable = true;
    catalog_options.read_only = true;
    catalog_options.storage.background_checkpointer = false;
    return std::make_shared<Catalog>(catalog_options);
  }

  ReplicaOptions FollowerOptions() {
    ReplicaOptions options;
    options.leader_host = "127.0.0.1";
    options.leader_port = leader_->port();
    options.data_dir = follower_dir_.string();
    return options;
  }

  /// Renders one deterministic best-match answer from `catalog`'s
  /// "power" dataset — the byte-level convergence probe (the payload
  /// depends on every series value, so leader and follower render
  /// identical bytes iff their recovered states match).
  std::string RenderedAnswer(Catalog& catalog) {
    auto acquired = catalog.Acquire("power");
    EXPECT_TRUE(acquired.ok()) << acquired.status().ToString();
    if (!acquired.ok()) return "";
    std::vector<double> probe(12, 0.5);
    for (size_t i = 0; i < probe.size(); ++i) {
      probe[i] = 0.2 + 0.05 * static_cast<double>(i % 8);
    }
    auto executed = acquired.value()->Execute(
        QueryRequest(KSimilarRequest{probe, 5, 0}), ExecContext{});
    EXPECT_TRUE(executed.ok()) << executed.status().ToString();
    if (!executed.ok()) return "";
    // Drop the header line: latency_us= is wall-clock, not state.
    const std::string block = RenderResponse(executed.value());
    const size_t eol = block.find('\n');
    return eol == std::string::npos ? block : block.substr(eol + 1);
  }

  fs::path leader_dir_;
  fs::path follower_dir_;
  /// Tweak before StartLeader() to shape the leader's storage (chain
  /// bounds, GC grace). background_checkpointer is forced off either way.
  storage::StorageOptions leader_storage_;
  std::shared_ptr<Catalog> leader_catalog_;
  std::unique_ptr<Server> leader_;
};

// ------------------------------------------------------ MANIFEST verb

TEST_F(ReplicationTest, ManifestVerbCutsCheckpointAndWritesDiskManifest) {
  StartLeader();
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(leader_catalog_->Append("power", MakeAppendSeries(i)).ok());
  }

  Client client = ConnectLeader();
  auto manifest = client.FetchManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest.value().entries.size(), 1u);
  const storage::ManifestEntry& entry = manifest.value().entries[0];
  EXPECT_EQ(entry.name, "power");
  EXPECT_EQ(entry.series, 13u);       // 10 seeded + 3 appended, all cut.
  EXPECT_EQ(entry.live_series, 13u);  // WAL tail empty right after the cut.
  EXPECT_EQ(entry.base_file, "power.onex");
  EXPECT_EQ(entry.wal_file, "power.wal");
  EXPECT_GT(entry.base_bytes, 0u);

  // The wire view and the disk file describe the same cut.
  const std::string disk_path =
      storage::ManifestPathFor(leader_dir_.string());
  ASSERT_TRUE(fs::exists(disk_path));
  EXPECT_EQ(ReadWholeFile(disk_path), RenderManifestJson(manifest.value()));

  // A second MANIFEST with no new appends is a no-op cut: same chain.
  auto again = client.FetchManifest();
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().entries.size(), 1u);
  EXPECT_EQ(again.value().entries[0].series, entry.series);
  EXPECT_EQ(again.value().entries[0].deltas.size(), entry.deltas.size());

  // New appends make the next cut publish one more incremental delta.
  ASSERT_TRUE(leader_catalog_->Append("power", MakeAppendSeries(99)).ok());
  auto after = client.FetchManifest();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().entries[0].series, entry.series + 1);
  EXPECT_EQ(after.value().entries[0].deltas.size(),
            entry.deltas.size() + 1);
}

// --------------------------------------------------------- FETCH verb

TEST_F(ReplicationTest, FetchStreamsArtifactBytesWithVerifiedCrcs) {
  StartLeader();
  Client client = ConnectLeader();
  auto manifest = client.FetchManifest();
  ASSERT_TRUE(manifest.ok());
  const storage::ManifestEntry& entry = manifest.value().entries[0];

  auto fetched = client.FetchArtifact("power", entry.base_file);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  const std::string on_disk =
      ReadWholeFile((leader_dir_ / entry.base_file).string());
  EXPECT_EQ(fetched.value(), on_disk);
  EXPECT_EQ(fetched.value().size(), entry.base_bytes);
  EXPECT_EQ(Crc32(fetched.value().data(), fetched.value().size()),
            entry.base_crc);

  // The WAL artifact fetches too (empty header-only file right after a
  // cut is fine — size just has to match the file).
  auto wal = client.FetchArtifact("power", entry.wal_file);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal.value().size(),
            fs::file_size(leader_dir_ / entry.wal_file));

  // And the session still speaks the line protocol afterwards — the
  // binary frames left the stream exactly framed.
  auto list = client.Roundtrip("list");
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE(list.value().ok);
}

TEST_F(ReplicationTest, FetchRejectsTraversalAndForeignArtifacts) {
  StartLeader();
  Client client = ConnectLeader();

  // Path separators and dot-dots die at the parser (BAD_REQUEST).
  auto traversal = client.Roundtrip("fetch power ../secrets");
  ASSERT_TRUE(traversal.ok());
  EXPECT_FALSE(traversal.value().ok);

  // A well-formed name outside the dataset's own artifact set is
  // refused by the server (one dataset cannot read another's files).
  auto foreign = client.FetchArtifact("power", "other.onex");
  EXPECT_FALSE(foreign.ok());

  // A chain position that does not exist suggests re-fetching the
  // manifest (compaction may have collapsed it).
  auto gone = client.FetchArtifact("power", "power.onex.delta.9");
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), Status::Code::kNotFound);
}

TEST(FetchClient, HugeDeclaredSizeIsRejectedNotAllocated) {
  // A fake leader: greets, reads the FETCH line, and answers with a
  // header declaring ~4 EiB in zero chunks. The follower's client must
  // refuse the artifact instead of trying to allocate the declared size.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::thread leader([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    auto send = [fd](const std::string& data) {
      return ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    };
    send("ONEX/8 ready\n");
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n') {
    }
    send("OK Fetch dataset=power artifact=power.onex "
         "bytes=4611686018427387903 crc32=0 chunks=0\n.\n");
    while (::recv(fd, &c, 1, 0) > 0) {
    }
    ::close(fd);
  });

  auto client = Client::Connect("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto fetched = client.value().FetchArtifact("power", "power.onex");
  ASSERT_FALSE(fetched.ok());
  EXPECT_TRUE(fetched.status().code() == Status::Code::kCorruption ||
              fetched.status().code() == Status::Code::kIOError)
      << fetched.status().ToString();
  client.value().Close();
  leader.join();
  ::close(listener);
}

// --------------------------------------------------- follower catch-up

TEST_F(ReplicationTest, FollowerBootstrapsTailsAndConvergesByteIdentically) {
  StartLeader();
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(leader_catalog_->Append("power", MakeAppendSeries(i)).ok());
  }

  auto follower_catalog = MakeFollowerCatalog();
  ReplicaSyncer syncer(FollowerOptions(), follower_catalog.get());
  ASSERT_TRUE(syncer.SyncOnce().ok());

  EXPECT_EQ(RenderedAnswer(*follower_catalog),
            RenderedAnswer(*leader_catalog_));
  const ReplicaStatus after_bootstrap = syncer.status();
  EXPECT_GE(after_bootstrap.lag_seconds, 0.0);
  EXPECT_EQ(after_bootstrap.last_applied_seq, 14u);

  // Tail: new leader appends arrive as ONE incremental delta on the
  // next round, and the follower's answer converges again.
  for (uint64_t i = 10; i < 13; ++i) {
    ASSERT_TRUE(leader_catalog_->Append("power", MakeAppendSeries(i)).ok());
  }
  ASSERT_TRUE(syncer.SyncOnce().ok());
  EXPECT_EQ(syncer.status().last_applied_seq, 17u);
  EXPECT_EQ(RenderedAnswer(*follower_catalog),
            RenderedAnswer(*leader_catalog_));

  // The follower's artifact directory now holds a delta chain — the
  // incremental path, not a base re-download.
  EXPECT_TRUE(
      fs::exists(storage::DeltaPathFor(follower_dir_.string(), "power", 1)));
}

TEST_F(ReplicationTest, RestartedFollowerConvergesWithoutRedownloadingBase) {
  StartLeader();
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(leader_catalog_->Append("power", MakeAppendSeries(i)).ok());
  }
  {
    auto follower_catalog = MakeFollowerCatalog();
    ReplicaSyncer first(FollowerOptions(), follower_catalog.get());
    ASSERT_TRUE(first.SyncOnce().ok());
  }  // Follower "crashes": syncer and catalog gone, artifacts remain.

  // Leader moves on while the follower is down.
  for (uint64_t i = 20; i < 23; ++i) {
    ASSERT_TRUE(leader_catalog_->Append("power", MakeAppendSeries(i)).ok());
  }

  auto follower_catalog = MakeFollowerCatalog();
  ReplicaSyncer restarted(FollowerOptions(), follower_catalog.get());
  ASSERT_TRUE(restarted.SyncOnce().ok());
  EXPECT_EQ(RenderedAnswer(*follower_catalog),
            RenderedAnswer(*leader_catalog_));
  EXPECT_EQ(restarted.status().last_applied_seq, 16u);
}

// ------------------------------------------- read-only follower verbs

TEST_F(ReplicationTest, FollowerServesReadsButRefusesMutationsReadOnly) {
  StartLeader();
  ASSERT_TRUE(leader_catalog_->Append("power", MakeAppendSeries(1)).ok());

  auto follower_catalog = MakeFollowerCatalog();
  ReplicaSyncer syncer(FollowerOptions(), follower_catalog.get());
  ASSERT_TRUE(syncer.SyncOnce().ok());

  ServerOptions options;
  options.replica_status = [&syncer] { return syncer.status(); };
  options.replica_lag_budget_s = 3600.0;
  auto started = Server::Start(std::move(options), follower_catalog);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> follower = std::move(started).value();

  auto client = Client::Connect("127.0.0.1", follower->port());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.value().greeting(), "ONEX/8 ready");

  // Reads serve.
  auto use = client.value().Roundtrip("use power");
  ASSERT_TRUE(use.ok());
  ASSERT_TRUE(use.value().ok) << use.value().message;
  EXPECT_EQ(use.value().header.at("series"), "11");

  // Mutations are refused with the structured READ_ONLY code.
  auto append = client.value().Roundtrip("append 0.1,0.2,0.3");
  ASSERT_TRUE(append.ok());
  EXPECT_FALSE(append.value().ok);
  EXPECT_EQ(append.value().code, kReadOnlyCode);
  auto flush = client.value().Roundtrip("flush");
  ASSERT_TRUE(flush.ok());
  EXPECT_FALSE(flush.value().ok);
  EXPECT_EQ(flush.value().code, kReadOnlyCode);

  // HEALTH: synced follower inside budget is ready, with the replica
  // gate line present.
  auto health = client.value().Roundtrip("health");
  ASSERT_TRUE(health.ok());
  ASSERT_TRUE(health.value().ok);
  EXPECT_EQ(health.value().header.at("ready"), "1");
  bool saw_replica_check = false;
  for (const std::string& line : health.value().payload) {
    if (line.rfind("check name=replica_lag", 0) == 0) {
      saw_replica_check = true;
      EXPECT_NE(line.find("ok=1"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_replica_check);

  // METRICS: the replica gauges exist and reflect the applied count.
  auto metrics = client.value().Roundtrip("metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics.value().ok);
  bool saw_applied = false;
  for (const std::string& line : metrics.value().payload) {
    if (line.rfind("onex_replica_last_applied_seq ", 0) == 0) {
      saw_applied = true;
      EXPECT_EQ(line, "onex_replica_last_applied_seq 11");
    }
  }
  EXPECT_TRUE(saw_applied);
}

TEST_F(ReplicationTest, NeverSyncedFollowerIsNotReady) {
  StartLeader();
  auto follower_catalog = MakeFollowerCatalog();
  ServerOptions options;
  options.replica_status = [] { return ReplicaStatus{}; };  // Never synced.
  auto started = Server::Start(std::move(options), follower_catalog);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<Server> follower = std::move(started).value();

  auto client = Client::Connect("127.0.0.1", follower->port());
  ASSERT_TRUE(client.ok());
  auto health = client.value().Roundtrip("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().header.at("ready"), "0");
}

// ------------------------------------------------- delta GC grace (v8)

TEST_F(ReplicationTest, RetiredArtifactsStayFetchableInsideGcGrace) {
  // A follower that planned its catch-up from an older manifest must be
  // able to finish fetching those deltas even after the leader compacts
  // the chain out from under it. A long grace keeps the retired bytes
  // on disk and servable over FETCH.
  leader_storage_.max_delta_chain_length = 2;
  leader_storage_.delta_gc_grace_s = 3600.0;
  StartLeader();

  Client client = ConnectLeader();
  // Append + cut until a compaction folds the chain back into the base;
  // remember the last manifest that still advertised deltas — that is
  // the stale plan a mid-catch-up follower would hold.
  storage::Manifest old_manifest;
  bool compacted = false;
  for (int round = 0; round < 6 && !compacted; ++round) {
    ASSERT_TRUE(
        leader_catalog_->Append("power", MakeAppendSeries(100 + round)).ok());
    auto manifest = client.FetchManifest();
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    ASSERT_EQ(manifest.value().entries.size(), 1u);
    if (manifest.value().entries[0].deltas.empty()) {
      compacted = !old_manifest.entries.empty();
    } else {
      old_manifest = manifest.value();
    }
  }
  ASSERT_TRUE(compacted) << "chain never compacted within 6 cuts";
  ASSERT_FALSE(old_manifest.entries[0].deltas.empty());

  // Every delta the stale manifest names is retired, not gone: FETCH
  // still streams the exact advertised byte count.
  for (const storage::ManifestEntry::DeltaRef& delta :
       old_manifest.entries[0].deltas) {
    auto bytes = client.FetchArtifact("power", delta.file);
    ASSERT_TRUE(bytes.ok()) << delta.file << ": "
                            << bytes.status().ToString();
    EXPECT_EQ(bytes.value().size(), delta.bytes) << delta.file;
  }

  // The gauges show artifacts parked in the grace window and nothing
  // reclaimed yet.
  auto metrics = client.Roundtrip("metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics.value().ok);
  bool saw_pending = false;
  bool saw_reclaimed = false;
  for (const std::string& line : metrics.value().payload) {
    if (line.rfind("onex_delta_gc_pending_artifacts ", 0) == 0) {
      saw_pending = true;
      EXPECT_NE(line, "onex_delta_gc_pending_artifacts 0");
    }
    if (line.rfind("onex_delta_gc_reclaimed_bytes ", 0) == 0) {
      saw_reclaimed = true;
      EXPECT_EQ(line, "onex_delta_gc_reclaimed_bytes 0");
    }
  }
  EXPECT_TRUE(saw_pending);
  EXPECT_TRUE(saw_reclaimed);
}

// -------------------------------------------- cross-session admin CANCEL

TEST_F(ReplicationTest, AdminCancelAbortsAnotherSessionsQuery) {
  // The worker blocks at job start until released, so the admin CANCEL
  // deterministically lands while the victim's query is in flight.
  std::mutex mutex;
  std::condition_variable cv;
  bool job_started = false;
  bool release = false;
  ServerOptions options;
  options.num_workers = 1;
  options.on_job_start = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    job_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  StartLeader(std::move(options));

  Client victim = ConnectLeader();
  ASSERT_TRUE(victim.Roundtrip("use power").ok());
  auto handle = victim.Submit(
      QueryRequest(RangeWithinRequest{std::vector<double>(24, 0.5),
                                      10.0, 0, false}));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return job_started; });
  }

  // The admin finds the victim's session number via INSPECT (sessions
  // are listed by fd) and cancels its in-flight id. With only two
  // sessions connected, the victim is whichever listed fd answers OK.
  Client admin = ConnectLeader();
  auto inspect = admin.Roundtrip("inspect");
  ASSERT_TRUE(inspect.ok());
  ASSERT_TRUE(inspect.value().ok);
  std::vector<std::string> session_fds;
  for (const std::string& line : inspect.value().payload) {
    if (line.rfind("session fd=", 0) == 0) {
      session_fds.push_back(line.substr(std::string("session fd=").size()));
    }
  }
  ASSERT_GE(session_fds.size(), 2u);
  bool cancelled = false;
  for (const std::string& fd : session_fds) {
    const std::string target = fd + "/" + std::to_string(handle.value().id());
    auto reply = admin.Roundtrip("cancel " + target);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply.value().ok) {
      EXPECT_EQ(reply.value().kind, "Cancel");
      EXPECT_EQ(reply.value().header.at("target"), target);
      cancelled = true;
      break;
    }
    // The admin's own session (or a wrong guess) answers the
    // structured NOT_FOUND, never a dropped connection.
    EXPECT_EQ(reply.value().code, "NOT_FOUND");
  }
  EXPECT_TRUE(cancelled);

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok()) << final.status().ToString();
  ASSERT_TRUE(final.value().ok);
  EXPECT_TRUE(final.value().partial());
  EXPECT_EQ(final.value().header.at("interrupt"), "CANCELLED");
}

TEST_F(ReplicationTest, AdminCancelUnknownSessionAndIdAreStructuredErrs) {
  StartLeader();
  Client client = ConnectLeader();

  // Unknown session number.
  auto no_session = client.Roundtrip("cancel 999999/1");
  ASSERT_TRUE(no_session.ok());
  EXPECT_FALSE(no_session.value().ok);
  EXPECT_EQ(no_session.value().code, "NOT_FOUND");
  EXPECT_NE(no_session.value().message.find("no session"),
            std::string::npos);

  // Known session (our own fd via INSPECT), unknown id.
  auto inspect = client.Roundtrip("inspect");
  ASSERT_TRUE(inspect.ok());
  std::string own_fd;
  for (const std::string& line : inspect.value().payload) {
    if (line.rfind("session fd=", 0) == 0) {
      own_fd = line.substr(std::string("session fd=").size());
    }
  }
  ASSERT_FALSE(own_fd.empty());
  auto no_id = client.Roundtrip("cancel " + own_fd + "/424242");
  ASSERT_TRUE(no_id.ok());
  EXPECT_FALSE(no_id.value().ok);
  EXPECT_EQ(no_id.value().code, "NOT_FOUND");
  EXPECT_NE(no_id.value().message.find("no in-flight query"),
            std::string::npos);

  // Malformed admin forms die at the parser.
  auto malformed = client.Roundtrip("cancel 12/");
  ASSERT_TRUE(malformed.ok());
  EXPECT_FALSE(malformed.value().ok);
}

// ------------------------------------------------- v6 grammar regression

TEST_F(ReplicationTest, V6SessionBytesAreUnchangedUnderV7) {
  // A pre-v7 control session replayed verb by verb: every reply here
  // is pinned to the exact v6 rendering (deterministic replies only —
  // no latency headers), so the v7 additions are provably additive.
  StartLeader();
  Client client = ConnectLeader();

  auto use = client.Roundtrip("use power");
  ASSERT_TRUE(use.ok());
  EXPECT_EQ(use.value().kind, "Use");
  EXPECT_EQ(use.value().header.at("series"), "10");
  EXPECT_EQ(use.value().header.at("durable"), "1");

  // Same-session cancel of an unknown id: the v6 NOT_FOUND bytes,
  // including the id= echo.
  auto cancel = client.Roundtrip("cancel 424242");
  ASSERT_TRUE(cancel.ok());
  EXPECT_FALSE(cancel.value().ok);
  EXPECT_EQ(cancel.value().code, "NOT_FOUND");
  EXPECT_EQ(cancel.value().id(), 424242u);
  EXPECT_EQ(cancel.value().message,
            "no in-flight query with id 424242 — already completed, or "
            "never sent");

  // An unknown verb is the same BAD_REQUEST it always was.
  auto bad = client.Roundtrip("manifesto");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().ok);

  // HEALTH on a non-replica: no replica_lag check line (the gate is
  // absent, not vacuously green).
  auto health = client.Roundtrip("health");
  ASSERT_TRUE(health.ok());
  ASSERT_TRUE(health.value().ok);
  for (const std::string& line : health.value().payload) {
    EXPECT_EQ(line.rfind("check name=replica_lag", 0), std::string::npos)
        << line;
  }
}

}  // namespace
}  // namespace server
}  // namespace onex
