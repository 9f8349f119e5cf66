// Tests for the durability subsystem (src/storage/): WAL record round
// trips, torn-tail and corrupt-record tolerance, DurableEngine
// kill-and-recover (every acknowledged append survives process death),
// checkpoint rotation, sequence-number skip on crash-mid-checkpoint,
// the background checkpointer, and an end-to-end wire APPEND/FLUSH
// kill-and-recover through catalog + server.

#include "storage/storage.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/wal.h"

namespace onex {
namespace storage {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSeedSeries = 10;
constexpr size_t kSeriesLength = 24;

Engine BuildSmallEngine(uint64_t seed) {
  GenOptions gen;
  gen.num_series = kSeedSeries;
  gen.length = kSeriesLength;
  gen.seed = seed;
  Dataset d = MakeItalyPower(gen);
  MinMaxNormalize(&d);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, kSeriesLength, 8};
  auto built = Engine::Build(std::move(d), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// A recognizable series: value j is a ramp offset by `tag`, so
/// recovered datasets can be checked value-for-value.
TimeSeries TaggedSeries(int tag) {
  std::vector<double> values(kSeriesLength);
  for (size_t j = 0; j < values.size(); ++j) {
    values[j] = 0.01 * static_cast<double>(tag) +
                0.9 * static_cast<double>(j) /
                    static_cast<double>(values.size() - 1);
  }
  return TimeSeries(std::move(values), tag);
}

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("storage_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string WalPath(const std::string& name) {
    return WalPathFor(dir_.string(), name);
  }

  /// Chops `bytes` off the end of a file (simulates a torn write).
  void TruncateTail(const std::string& path, uint64_t bytes) {
    const uint64_t size = fs::file_size(path);
    ASSERT_GT(size, bytes);
    fs::resize_file(path, size - bytes);
  }

  /// XORs one byte at `offset` (simulates bitrot / partial overwrite).
  void FlipByte(const std::string& path, uint64_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  }

  fs::path dir_;
};

// ------------------------------------------------------------ WAL unit.

TEST_F(StorageTest, WalRoundTripsRecords) {
  const std::string path = WalPath("w");
  auto writer = WalWriter::Create(path, 42);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<TimeSeries> originals = {TaggedSeries(1), TaggedSeries(-7),
                                       TaggedSeries(300)};
  for (const TimeSeries& series : originals) {
    ASSERT_TRUE(writer.value().Append(series).ok());
  }
  ASSERT_TRUE(writer.value().Sync().ok());
  EXPECT_EQ(writer.value().records(), 3u);

  auto contents = ReadWal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value().snapshot_series, 42u);
  EXPECT_FALSE(contents.value().tail_torn);
  ASSERT_EQ(contents.value().records.size(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(contents.value().records[i].values(), originals[i].values());
    EXPECT_EQ(contents.value().records[i].label(), originals[i].label());
  }
  EXPECT_EQ(contents.value().valid_bytes, fs::file_size(path));
}

TEST_F(StorageTest, WalTornTailRecoversValidPrefixAndStaysAppendable) {
  const std::string path = WalPath("torn");
  {
    auto writer = WalWriter::Create(path, 0);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(writer.value().Append(TaggedSeries(i)).ok());
    }
    ASSERT_TRUE(writer.value().Sync().ok());
  }
  TruncateTail(path, 5);  // Record 4 loses its last bytes.

  auto contents = ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents.value().tail_torn);
  ASSERT_EQ(contents.value().records.size(), 4u);

  // Appending on top of the valid prefix truncates the torn tail, so
  // the new record is reachable at the next replay.
  auto writer = WalWriter::OpenForAppend(path, contents.value().valid_bytes);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value().Append(TaggedSeries(99)).ok());
  ASSERT_TRUE(writer.value().Sync().ok());

  auto reread = ReadWal(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_FALSE(reread.value().tail_torn);
  ASSERT_EQ(reread.value().records.size(), 5u);
  EXPECT_EQ(reread.value().records[4].label(), 99);
}

TEST_F(StorageTest, WalCorruptRecordStopsReplayAtLastValidRecord) {
  const std::string path = WalPath("corrupt");
  uint64_t first_record_end = 0;
  {
    auto writer = WalWriter::Create(path, 0);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append(TaggedSeries(0)).ok());
    first_record_end = writer.value().bytes();
    ASSERT_TRUE(writer.value().Append(TaggedSeries(1)).ok());
    ASSERT_TRUE(writer.value().Append(TaggedSeries(2)).ok());
    ASSERT_TRUE(writer.value().Sync().ok());
  }
  // Corrupt a payload byte of record 1: its CRC fails, and replay must
  // not continue to record 2 (boundaries after unverifiable bytes
  // cannot be trusted).
  FlipByte(path, first_record_end + 16);

  auto contents = ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents.value().tail_torn);
  ASSERT_EQ(contents.value().records.size(), 1u);
  EXPECT_EQ(contents.value().records[0].label(), 0);
  EXPECT_EQ(contents.value().valid_bytes, first_record_end);
}

TEST_F(StorageTest, WalHeaderProblemsAreDiagnosed) {
  // Missing file.
  EXPECT_EQ(ReadWal(WalPath("nope")).status().code(),
            Status::Code::kNotFound);

  // Garbage that is long enough to carry a magic: Corruption.
  const std::string garbage = WalPath("garbage");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is definitely not a write-ahead log";
  }
  EXPECT_EQ(ReadWal(garbage).status().code(), Status::Code::kCorruption);

  // A file shorter than the header (crash during rotation): empty log,
  // flagged torn, NOT an error — the snapshot alone is consistent.
  const std::string shorty = WalPath("short");
  {
    std::ofstream out(shorty, std::ios::binary);
    out << "OW";
  }
  auto contents = ReadWal(shorty);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents.value().records.empty());
  EXPECT_TRUE(contents.value().tail_torn);
}

// ------------------------------------------- DurableEngine recovery.

TEST_F(StorageTest, KillAndRecoverReplaysEveryAcknowledgedAppend) {
  StorageOptions options;
  options.background_checkpointer = false;  // Pin "crash before checkpoint".
  constexpr int kAppends = 5;
  {
    auto durable = DurableEngine::Create(dir_.string(), "live",
                                         BuildSmallEngine(1), options);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (int i = 0; i < kAppends; ++i) {
      ASSERT_TRUE(durable.value()->Append(TaggedSeries(100 + i)).ok());
    }
    EXPECT_EQ(durable.value()->stats().wal_records,
              static_cast<uint64_t>(kAppends));
    // Dropped here WITHOUT a checkpoint: recovery must come from the WAL.
  }

  auto reopened = DurableEngine::Open(dir_.string(), "live", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::shared_ptr<Engine> engine = reopened.value()->engine();
  EXPECT_EQ(engine->num_series(), kSeedSeries + kAppends);
  EXPECT_EQ(reopened.value()->stats().replayed_records,
            static_cast<uint64_t>(kAppends));

  // Value-for-value: the recovered dataset holds exactly what was
  // acknowledged, and the recovered base answers queries over it.
  for (int i = 0; i < kAppends; ++i) {
    const TimeSeries want = TaggedSeries(100 + i);
    const TimeSeries& got = engine->dataset()[kSeedSeries + i];
    EXPECT_EQ(got.values(), want.values());
    EXPECT_EQ(got.label(), want.label());
    auto response = engine->Execute(
        BestMatchRequest{want.values(), kSeriesLength}, ExecContext{});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().matches().size(), 1u);
  }
}

TEST_F(StorageTest, TornFinalRecordStillRecoversEveryPriorAppend) {
  StorageOptions options;
  options.background_checkpointer = false;
  {
    auto durable = DurableEngine::Create(dir_.string(), "torn",
                                         BuildSmallEngine(2), options);
    ASSERT_TRUE(durable.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(durable.value()->Append(TaggedSeries(200 + i)).ok());
    }
  }
  TruncateTail(WalPath("torn"), 7);  // Tear the last record mid-payload.

  auto reopened = DurableEngine::Open(dir_.string(), "torn", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->engine()->num_series(), kSeedSeries + 3);
  EXPECT_TRUE(reopened.value()->stats().recovered_torn_tail);
  EXPECT_EQ(reopened.value()->stats().replayed_records, 3u);

  // The log remains appendable after tail truncation, and the next
  // recovery sees old and new records alike.
  ASSERT_TRUE(reopened.value()->Append(TaggedSeries(299)).ok());
  reopened = Status::NotFound("dropped");
  auto again = DurableEngine::Open(dir_.string(), "torn", options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->engine()->num_series(), kSeedSeries + 4);
  EXPECT_EQ(again.value()->engine()->dataset()[kSeedSeries + 3].label(), 299);
}

TEST_F(StorageTest, CheckpointRotatesWalAndMakesSnapshotSelfSufficient) {
  StorageOptions options;
  options.background_checkpointer = false;
  {
    auto durable = DurableEngine::Create(dir_.string(), "ckpt",
                                         BuildSmallEngine(3), options);
    ASSERT_TRUE(durable.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(durable.value()->Append(TaggedSeries(300 + i)).ok());
    }
    ASSERT_TRUE(durable.value()->Checkpoint().ok());
    const StorageStats stats = durable.value()->stats();
    EXPECT_EQ(stats.checkpoints, 1u);
    EXPECT_EQ(stats.wal_records, 0u);  // Rotated.
  }
  // Even with the WAL deleted outright, the checkpointed snapshot holds
  // every append.
  fs::remove(WalPath("ckpt"));
  auto reopened = DurableEngine::Open(dir_.string(), "ckpt", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->engine()->num_series(), kSeedSeries + 3);
  EXPECT_EQ(reopened.value()->stats().replayed_records, 0u);
}

TEST_F(StorageTest, NonFiniteAppendsAreRejectedBeforeTheWal) {
  // A NaN or overflowing value would make every distance, row sum and
  // SP-Space marker of its length non-finite, and the loader rejects
  // such a snapshot as corrupt. The append must fail before the WAL, so
  // neither replay nor the next checkpoint ever sees it.
  StorageOptions options;
  options.background_checkpointer = false;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  {
    auto durable = DurableEngine::Create(dir_.string(), "finite",
                                         BuildSmallEngine(4), options);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (const double bad : {nan, inf, -inf, 1e200}) {
      TimeSeries series = TaggedSeries(400);
      series[3] = bad;
      EXPECT_EQ(durable.value()->Append(series).code(),
                Status::Code::kInvalidArgument)
          << bad;
      std::vector<TimeSeries> batch = {TaggedSeries(401), series};
      EXPECT_EQ(
          durable.value()->engine()->AppendBatch(std::move(batch)).code(),
          Status::Code::kInvalidArgument)
          << bad;
    }
    EXPECT_EQ(durable.value()->stats().wal_records, 0u);
    EXPECT_EQ(durable.value()->engine()->num_series(), kSeedSeries);
    ASSERT_TRUE(durable.value()->Append(TaggedSeries(402)).ok());
    ASSERT_TRUE(durable.value()->Checkpoint().ok());
  }
  fs::remove(WalPath("finite"));
  auto reopened = DurableEngine::Open(dir_.string(), "finite", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened.value()->engine()->num_series(), kSeedSeries + 1);
  EXPECT_EQ(reopened.value()->engine()->dataset()[kSeedSeries].values(),
            TaggedSeries(402).values());
}

TEST_F(StorageTest, Version1SnapshotDirectoryOpensAndCheckpointsForward) {
  // A data directory written before the snapshot format dropped the Dc
  // matrix (tests/data/base_v1.onex: 5 series of 12 points, no WAL).
  // It must open, take appends, and checkpoint into the current format
  // (a delta from the old bytes, or a compacted base) that reopens.
  fs::copy_file(std::string(ONEX_TEST_DATA_DIR) + "/base_v1.onex",
                BasePathFor(dir_.string(), "old"));
  StorageOptions options;
  options.background_checkpointer = false;
  std::vector<double> appended(12);
  for (size_t j = 0; j < appended.size(); ++j) appended[j] = 0.05 * j;
  {
    auto opened = DurableEngine::Open(dir_.string(), "old", options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened.value()->engine()->num_series(), 5u);
    ASSERT_TRUE(opened.value()->Append(TimeSeries(appended, 1)).ok());
    ASSERT_TRUE(opened.value()->Checkpoint().ok());
  }
  fs::remove(WalPath("old"));  // The checkpoint alone must hold it.
  auto reopened = DurableEngine::Open(dir_.string(), "old", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto engine = reopened.value()->engine();
  ASSERT_EQ(engine->num_series(), 6u);
  const auto view = engine->base().dataset()[5].Subsequence(0, 12);
  EXPECT_EQ(std::vector<double>(view.begin(), view.end()), appended);
}

TEST_F(StorageTest, RecoverySkipsRecordsAlreadyInTheSnapshot) {
  StorageOptions options;
  options.background_checkpointer = false;
  const std::string wal = WalPath("skip");
  const std::string stale_wal = wal + ".saved";
  {
    auto durable = DurableEngine::Create(dir_.string(), "skip",
                                         BuildSmallEngine(4), options);
    ASSERT_TRUE(durable.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(durable.value()->Append(TaggedSeries(400 + i)).ok());
    }
    fs::copy_file(wal, stale_wal);
    ASSERT_TRUE(durable.value()->Checkpoint().ok());
  }
  // Simulate a crash BETWEEN "snapshot renamed" and "WAL rotated": the
  // new snapshot (13 series) pairs with the old log (3 records against
  // the 10-series snapshot). Replay must skip all 3 — no duplicates.
  fs::remove(wal);
  fs::rename(stale_wal, wal);

  auto reopened = DurableEngine::Open(dir_.string(), "skip", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->engine()->num_series(), kSeedSeries + 3);
  EXPECT_EQ(reopened.value()->stats().skipped_records, 3u);
  EXPECT_EQ(reopened.value()->stats().replayed_records, 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(reopened.value()->engine()->dataset()[kSeedSeries + i].label(),
              400 + i);
  }
}

TEST_F(StorageTest, StaleShortWalIsRotatedNotContinued) {
  // Crash-after-snapshot-rename with an UNSYNCED torn tail can leave a
  // log whose valid records stop short of what the snapshot holds.
  // Continuing that log would hand new appends sequence numbers the
  // snapshot already covers — the next recovery would skip them. Open
  // must rotate instead.
  StorageOptions options;
  options.background_checkpointer = false;
  const std::string wal = WalPath("stale");
  const std::string short_wal = wal + ".short";
  {
    auto durable = DurableEngine::Create(dir_.string(), "stale",
                                         BuildSmallEngine(8), options);
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE(durable.value()->Append(TaggedSeries(800)).ok());
    ASSERT_TRUE(durable.value()->Append(TaggedSeries(801)).ok());
    fs::copy_file(wal, short_wal);  // 2 records against the 10-snapshot.
    ASSERT_TRUE(durable.value()->Append(TaggedSeries(802)).ok());
    ASSERT_TRUE(durable.value()->Checkpoint().ok());  // Snapshot: 13.
  }
  fs::remove(wal);
  fs::rename(short_wal, wal);  // The stale, too-short log.

  {
    auto reopened = DurableEngine::Open(dir_.string(), "stale", options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value()->engine()->num_series(), kSeedSeries + 3);
    EXPECT_EQ(reopened.value()->stats().replayed_records, 0u);
    // An append after this recovery must survive the NEXT recovery.
    ASSERT_TRUE(reopened.value()->Append(TaggedSeries(803)).ok());
  }
  auto again = DurableEngine::Open(dir_.string(), "stale", options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->engine()->num_series(), kSeedSeries + 4);
  EXPECT_EQ(again.value()->engine()->dataset()[kSeedSeries + 3].label(), 803);
}

TEST_F(StorageTest, BackgroundCheckpointerTriggersOnRecordThreshold) {
  StorageOptions options;
  options.checkpoint_wal_records = 3;
  options.checkpoint_wal_bytes = 0;  // Records-only trigger.
  auto durable = DurableEngine::Create(dir_.string(), "bg",
                                       BuildSmallEngine(6), options);
  ASSERT_TRUE(durable.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(durable.value()->Append(TaggedSeries(600 + i)).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (durable.value()->stats().checkpoints == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(durable.value()->stats().checkpoints, 1u);
  EXPECT_LT(durable.value()->stats().wal_records, 3u);
}

// -------------------------------------- end-to-end over the wire.

/// Append over TCP, kill the serving stack, restart it on the same
/// directory, and query what was appended: the full story the ISSUE's
/// acceptance criterion tells.
TEST_F(StorageTest, WireAppendsSurviveServerDeathWithoutFlush) {
  server::CatalogOptions catalog_options;
  catalog_options.data_dir = dir_.string();
  catalog_options.durable = true;
  catalog_options.storage.background_checkpointer = false;

  const TimeSeries first = TaggedSeries(700);
  const TimeSeries second = TaggedSeries(701);

  {
    auto catalog =
        std::make_shared<server::Catalog>(catalog_options);
    catalog->Register("live", BuildSmallEngine(7));
    auto started = server::Server::Start(server::ServerOptions{}, catalog);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    auto server = std::move(started).value();

    auto connected = server::Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(connected.ok());
    server::Client client = std::move(connected).value();

    auto use = client.Roundtrip("use live");
    ASSERT_TRUE(use.ok());
    ASSERT_TRUE(use.value().ok) << use.value().message;
    EXPECT_EQ(use.value().header.at("durable"), "1");

    // APPEND before USE on a fresh session is a structured error.
    auto other = server::Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(other.ok());
    auto unbound = other.value().Roundtrip(
        server::RenderAppendLine(server::AppendRequest{first.values(), 0}));
    ASSERT_TRUE(unbound.ok());
    EXPECT_FALSE(unbound.value().ok);
    EXPECT_EQ(unbound.value().code, server::kNoDatasetCode);

    // Two durable appends; the reply acknowledges index and total.
    auto a1 = client.Roundtrip(server::RenderAppendLine(
        server::AppendRequest{first.values(), first.label()}));
    ASSERT_TRUE(a1.ok());
    ASSERT_TRUE(a1.value().ok) << a1.value().message;
    EXPECT_EQ(a1.value().header.at("series"),
              std::to_string(kSeedSeries));
    EXPECT_EQ(a1.value().header.at("durable"), "1");
    auto a2 = client.Roundtrip(server::RenderAppendLine(
        server::AppendRequest{second.values(), second.label()}));
    ASSERT_TRUE(a2.ok());
    ASSERT_TRUE(a2.value().ok);
    EXPECT_EQ(a2.value().header.at("total"),
              std::to_string(kSeedSeries + 2));

    // The appended data is immediately queryable over the wire.
    auto hit = client.Execute(QueryRequest(
        BestMatchRequest{first.values(), kSeriesLength}));
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.value().ok);

    // Deliberately NO flush: the restart below must recover both
    // appends from the WAL alone.
    server->Stop();
  }  // Catalog (and every DurableEngine) dies here. No checkpoint ran.

  {
    auto catalog =
        std::make_shared<server::Catalog>(catalog_options);
    // NOTE: no Register — "live" must come back from snapshot + WAL.
    auto started = server::Server::Start(server::ServerOptions{}, catalog);
    ASSERT_TRUE(started.ok());
    auto server = std::move(started).value();

    auto connected = server::Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(connected.ok());
    server::Client client = std::move(connected).value();
    auto use = client.Roundtrip("use live");
    ASSERT_TRUE(use.ok());
    ASSERT_TRUE(use.value().ok) << use.value().message;
    EXPECT_EQ(use.value().header.at("series"),
              std::to_string(kSeedSeries + 2));

    auto hit = client.Execute(QueryRequest(
        BestMatchRequest{second.values(), kSeriesLength}));
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.value().ok) << hit.value().code;
    ASSERT_FALSE(hit.value().payload.empty());

    // FLUSH over the wire checkpoints: the engine reports durable and
    // the flush round-trips OK.
    auto flushed = client.Roundtrip("flush");
    ASSERT_TRUE(flushed.ok());
    EXPECT_TRUE(flushed.value().ok) << flushed.value().message;
    server->Stop();
  }

  // After the flush, the snapshot alone carries everything.
  fs::remove(WalPath("live"));
  auto reopened = DurableEngine::Open(dir_.string(), "live",
                                      catalog_options.storage);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->engine()->num_series(), kSeedSeries + 2);
  EXPECT_EQ(reopened.value()->engine()->dataset()[kSeedSeries].values(),
            first.values());
}

// ------------------------------------------------------ delta GC (v8).

TEST_F(StorageTest, DeltaGcRetiresInsideGraceThenSweepsAfterIt) {
  StorageOptions options;
  options.background_checkpointer = false;
  options.max_delta_chain_length = 2;
  options.delta_gc_grace_s = 0.5;
  auto durable = DurableEngine::Create(dir_.string(), "gc",
                                       BuildSmallEngine(3), options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  // Checkpoint past the chain bound so a compaction orphans the chain.
  size_t round = 0;
  while (durable.value()->stats().chain_compactions == 0) {
    ASSERT_LT(round, 8u) << "chain never compacted";
    ASSERT_TRUE(
        durable.value()->Append(TaggedSeries(static_cast<int>(round))).ok());
    ASSERT_TRUE(durable.value()->Checkpoint().ok());
    ++round;
  }

  // Inside the grace window the orphans are RETIRED, not unlinked: the
  // artifact bytes stay servable to a follower holding the old
  // manifest, the pending gauge counts them, and nothing is reclaimed.
  StorageStats stats = durable.value()->stats();
  EXPECT_GE(stats.gc_pending_artifacts, 1u);
  EXPECT_EQ(stats.gc_reclaimed_bytes, 0u);
  EXPECT_TRUE(fs::exists(DeltaPathFor(dir_.string(), "gc", 1)));
  EXPECT_EQ(durable.value()->CollectGarbage(), 0u);
  EXPECT_TRUE(fs::exists(DeltaPathFor(dir_.string(), "gc", 1)));

  // Once the grace elapses the sweep unlinks them and accounts the
  // reclaimed bytes.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_GE(durable.value()->CollectGarbage(), 1u);
  stats = durable.value()->stats();
  EXPECT_EQ(stats.gc_pending_artifacts, 0u);
  EXPECT_GT(stats.gc_reclaimed_bytes, 0u);
  EXPECT_FALSE(fs::exists(DeltaPathFor(dir_.string(), "gc", 1)));
}

TEST_F(StorageTest, DeltaGcZeroGraceKeepsImmediateUnlink) {
  // The historical default: no grace, compaction unlinks on the spot
  // and the GC gauges stay zero.
  StorageOptions options;
  options.background_checkpointer = false;
  options.max_delta_chain_length = 2;
  auto durable = DurableEngine::Create(dir_.string(), "nograce",
                                       BuildSmallEngine(3), options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  size_t round = 0;
  while (durable.value()->stats().chain_compactions == 0) {
    ASSERT_LT(round, 8u);
    ASSERT_TRUE(
        durable.value()->Append(TaggedSeries(static_cast<int>(round))).ok());
    ASSERT_TRUE(durable.value()->Checkpoint().ok());
    ++round;
  }
  const StorageStats stats = durable.value()->stats();
  EXPECT_EQ(stats.gc_pending_artifacts, 0u);
  EXPECT_EQ(stats.gc_reclaimed_bytes, 0u);
  EXPECT_FALSE(fs::exists(DeltaPathFor(dir_.string(), "nograce", 1)));
}

}  // namespace
}  // namespace storage
}  // namespace onex
