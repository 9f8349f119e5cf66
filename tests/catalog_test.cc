// Tests for the multi-dataset catalog (src/server/catalog.h): lazy
// Engine::Open from the data directory, engine sharing across sessions
// (same shared_ptr), LRU eviction under the resident cap, in-use and
// pinned engines surviving eviction, and LIST enumeration.

#include "server/catalog.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "api/engine.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"

namespace onex {
namespace server {
namespace {

namespace fs = std::filesystem;

Engine BuildSmallEngine(uint64_t seed) {
  GenOptions gen;
  gen.num_series = 10;
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

/// A temp data directory with `names.size()` persisted bases.
class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("catalog_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    uint64_t seed = 1;
    for (const char* name : {"alpha", "beta", "gamma"}) {
      Engine engine = BuildSmallEngine(seed++);
      ASSERT_TRUE(engine.Save((dir_ / (std::string(name) + ".onex"))
                                  .string())
                      .ok());
    }
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  Catalog MakeCatalog(size_t cap) {
    CatalogOptions options;
    options.data_dir = dir_.string();
    options.max_open_engines = cap;
    return Catalog(options);
  }

  fs::path dir_;
};

TEST_F(CatalogTest, LazyOpensAndSharesEngines) {
  Catalog catalog = MakeCatalog(8);
  EXPECT_EQ(catalog.stats().resident, 0u);  // Nothing opened eagerly.

  auto first = catalog.Acquire("alpha");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value()->num_series(), 10u);
  EXPECT_EQ(catalog.stats().lazy_opens, 1u);
  EXPECT_EQ(catalog.stats().resident, 1u);

  // A second session gets the SAME engine, not a second copy.
  auto second = catalog.Acquire("alpha");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(catalog.stats().lazy_opens, 1u);
  EXPECT_EQ(catalog.stats().hits, 1u);
}

TEST_F(CatalogTest, UnknownNameIsNotFound) {
  Catalog catalog = MakeCatalog(8);
  auto missing = catalog.Acquire("no-such-dataset");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
  // The message reaches wire clients: it names the dataset, never the
  // node's data directory.
  EXPECT_NE(missing.status().message().find("no-such-dataset"),
            std::string::npos);
  EXPECT_EQ(missing.status().message().find(dir_.string()),
            std::string::npos);

  // No data_dir at all: same error, no filesystem poking.
  Catalog empty{CatalogOptions{}};
  EXPECT_EQ(empty.Acquire("alpha").status().code(),
            Status::Code::kNotFound);
}

TEST_F(CatalogTest, LruEvictsIdleEnginesBeyondCap) {
  Catalog catalog = MakeCatalog(2);
  // Touch alpha, then beta; do not hold the references.
  ASSERT_TRUE(catalog.Acquire("alpha").ok());
  ASSERT_TRUE(catalog.Acquire("beta").ok());
  EXPECT_EQ(catalog.stats().resident, 2u);

  // gamma exceeds the cap: alpha (least recently used) is evicted.
  ASSERT_TRUE(catalog.Acquire("gamma").ok());
  EXPECT_EQ(catalog.stats().resident, 2u);
  EXPECT_EQ(catalog.stats().evictions, 1u);
  for (const auto& row : catalog.List()) {
    if (row.name == "alpha") EXPECT_FALSE(row.resident);
    if (row.name == "beta" || row.name == "gamma") {
      EXPECT_TRUE(row.resident);
    }
  }

  // Re-acquiring alpha lazily reopens it (and evicts beta, now LRU).
  ASSERT_TRUE(catalog.Acquire("alpha").ok());
  EXPECT_EQ(catalog.stats().lazy_opens, 4u);
  EXPECT_EQ(catalog.stats().evictions, 2u);
}

TEST_F(CatalogTest, InUseEnginesAreNotEvicted) {
  Catalog catalog = MakeCatalog(1);
  auto held = catalog.Acquire("alpha");
  ASSERT_TRUE(held.ok());

  // alpha is in use (we hold the shared_ptr), so opening beta cannot
  // reclaim it: the catalog runs over cap rather than pull a live
  // engine out from under a session.
  auto other = catalog.Acquire("beta");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(catalog.stats().resident, 2u);
  EXPECT_EQ(catalog.stats().evictions, 0u);
  EXPECT_EQ(held.value()->num_series(), 10u);  // Still fully usable.

  // Dropping both references makes them evictable at the next open.
  held = Status::NotFound("released");
  other = Status::NotFound("released");
  ASSERT_TRUE(catalog.Acquire("gamma").ok());
  EXPECT_EQ(catalog.stats().resident, 1u);
  EXPECT_EQ(catalog.stats().evictions, 2u);
}

TEST_F(CatalogTest, RegisteredEnginesArePinned) {
  Catalog catalog = MakeCatalog(1);
  catalog.Register("mem", BuildSmallEngine(77));

  auto mem = catalog.Acquire("mem");
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(catalog.stats().lazy_opens, 0u);  // Served from memory.

  // Disk engines churn past the cap; the pinned engine stays put (it
  // has no file to be reopened from).
  auto mem_before = mem.value().get();
  mem = Status::NotFound("released");
  ASSERT_TRUE(catalog.Acquire("alpha").ok());
  ASSERT_TRUE(catalog.Acquire("beta").ok());
  auto mem_after = catalog.Acquire("mem");
  ASSERT_TRUE(mem_after.ok());
  EXPECT_EQ(mem_after.value().get(), mem_before);
  for (const auto& row : catalog.List()) {
    if (row.name == "mem") {
      EXPECT_TRUE(row.resident);
      EXPECT_TRUE(row.pinned);
    }
  }
}

TEST_F(CatalogTest, ListMergesDiskAndMemoryEntries) {
  Catalog catalog = MakeCatalog(8);
  catalog.Register("mem", BuildSmallEngine(78));
  ASSERT_TRUE(catalog.Acquire("beta").ok());

  const auto rows = catalog.List();
  ASSERT_EQ(rows.size(), 4u);  // alpha, beta, gamma, mem — sorted.
  EXPECT_EQ(rows[0].name, "alpha");
  EXPECT_FALSE(rows[0].resident);  // Known on disk, never opened.
  EXPECT_EQ(rows[1].name, "beta");
  EXPECT_TRUE(rows[1].resident);
  EXPECT_EQ(rows[2].name, "gamma");
  EXPECT_EQ(rows[3].name, "mem");
  EXPECT_TRUE(rows[3].pinned);
}

// ---------------------------------------- dirty engines and eviction.

TEST_F(CatalogTest, DirtyEngineIsNeverSilentlyEvicted) {
  // Regression for the silent-data-loss hazard: append to a
  // non-durable disk-backed engine, then put it under LRU pressure.
  // Eviction would discard the append (memory-only), so the catalog
  // must refuse and keep it resident.
  Catalog catalog = MakeCatalog(2);
  ASSERT_TRUE(catalog.Acquire("alpha").ok());
  auto appended = catalog.Append(
      "alpha", TimeSeries(std::vector<double>(24, 0.5), 9));
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended.value().total, 11u);
  EXPECT_FALSE(appended.value().durable);

  // beta + gamma push past the cap. alpha is the LRU victim but dirty
  // -> refused (the LRU takes clean beta instead); alpha stays
  // resident with its append intact.
  ASSERT_TRUE(catalog.Acquire("beta").ok());
  ASSERT_TRUE(catalog.Acquire("gamma").ok());
  EXPECT_EQ(catalog.stats().refused_evictions, 1u);
  for (const auto& row : catalog.List()) {
    if (row.name == "alpha") {
      EXPECT_TRUE(row.resident);
      EXPECT_TRUE(row.dirty);
    }
  }
  auto alpha = catalog.Acquire("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(alpha.value()->num_series(), 11u);

  // After an explicit FLUSH the data is on disk and the entry is clean;
  // fresh eviction pressure may now take alpha, and reopening it from
  // disk still finds the append.
  alpha = Status::NotFound("released");
  ASSERT_TRUE(catalog.Flush("alpha").ok());
  ASSERT_TRUE(catalog.Acquire("beta").ok());
  ASSERT_TRUE(catalog.Acquire("gamma").ok());
  for (const auto& row : catalog.List()) {
    if (row.name == "alpha") EXPECT_FALSE(row.resident);  // Evicted now.
  }
  EXPECT_GE(catalog.stats().evictions, 1u);
  auto reloaded = catalog.Acquire("alpha");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value()->num_series(), 11u);
  EXPECT_EQ(reloaded.value()->dataset()[10].label(), 9);
}

TEST_F(CatalogTest, DurableDirtyEngineIsCheckpointedThenEvicted) {
  CatalogOptions options;
  options.data_dir = dir_.string();
  options.max_open_engines = 2;
  options.durable = true;
  options.storage.background_checkpointer = false;
  Catalog catalog{options};

  ASSERT_TRUE(catalog.Acquire("alpha").ok());
  auto appended = catalog.Append(
      "alpha", TimeSeries(std::vector<double>(24, 0.25), 3));
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_TRUE(appended.value().durable);

  // Eviction pressure: the dirty durable engine is checkpointed first,
  // then evicted — never refused, never lossy.
  ASSERT_TRUE(catalog.Acquire("beta").ok());
  ASSERT_TRUE(catalog.Acquire("gamma").ok());
  EXPECT_EQ(catalog.stats().refused_evictions, 0u);
  EXPECT_EQ(catalog.stats().flush_evictions, 1u);
  EXPECT_EQ(catalog.stats().resident, 2u);

  auto reloaded = catalog.Acquire("alpha");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value()->num_series(), 11u);
  EXPECT_EQ(reloaded.value()->dataset()[10].label(), 3);
  EXPECT_TRUE(reloaded.value()->durable());
}

TEST_F(CatalogTest, DurableRegisterRecoversExistingDataInsteadOfTruncating) {
  CatalogOptions options;
  options.data_dir = dir_.string();
  options.durable = true;
  options.storage.background_checkpointer = false;
  {
    Catalog catalog{options};
    catalog.Register("demo", BuildSmallEngine(90));
    ASSERT_TRUE(
        catalog.Append("demo", TimeSeries(std::vector<double>(24, 0.4), 7))
            .ok());
  }  // Catalog dies; the append lives in demo.onex + demo.wal.

  // A restart re-registers the same demo name with a freshly built
  // engine — that must NOT truncate the durable pair: the recovered
  // state (with the append) wins.
  Catalog restarted{options};
  restarted.Register("demo", BuildSmallEngine(90));
  auto demo = restarted.Acquire("demo");
  ASSERT_TRUE(demo.ok());
  EXPECT_EQ(demo.value()->num_series(), 11u);
  EXPECT_EQ(demo.value()->dataset()[10].label(), 7);
}

TEST_F(CatalogTest, FlushWithoutBackingStoreIsNotSupported) {
  Catalog catalog{CatalogOptions{}};  // No data_dir.
  catalog.Register("mem", BuildSmallEngine(80));
  ASSERT_TRUE(
      catalog.Append("mem", TimeSeries(std::vector<double>(24, 0.1))).ok());
  EXPECT_EQ(catalog.Flush("mem").code(), Status::Code::kNotSupported);
}

TEST_F(CatalogTest, AcquiredEnginesAnswerQueries) {
  Catalog catalog = MakeCatalog(8);
  auto engine = catalog.Acquire("alpha");
  ASSERT_TRUE(engine.ok());
  const auto view = engine.value()->dataset()[2].Subsequence(3, 8);
  std::vector<double> query(view.begin(), view.end());
  auto response = engine.value()->Execute(BestMatchRequest{query, 8}, ExecContext{});
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().matches().size(), 1u);
  // The reloaded base answers like a freshly built one (ONEX search is
  // approximate, so an in-dataset query is close, not necessarily 0).
  Engine twin = BuildSmallEngine(1);
  auto want = twin.Execute(BestMatchRequest{query, 8}, ExecContext{});
  ASSERT_TRUE(want.ok());
  EXPECT_DOUBLE_EQ(response.value().matches()[0].distance,
                   want.value().matches()[0].distance);
}

}  // namespace
}  // namespace server
}  // namespace onex
