// Tests for the v8 scatter-gather query router (src/router/): the
// shard-set grammar and replica-aware routing table, the probe parsers
// (HEALTH role detection, LIST dataset discovery), the text-level merge
// engine (distance re-ranking, stats summing, final-block rendering,
// deadline budget arithmetic), and the wire-level router itself —
// write-to-leader vs read-to-freshest-follower, scatter-gather parity
// against a single-node union run, mid-query upstream kill with
// idempotent re-submit, a re-dial after a node restart, CANCEL
// fan-out, deadline propagation, and the scatter path's costs: no
// delayed-ACK stalls on the upstream links, no thread growth per
// tagged read, and independent leg failover.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/engine.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "router/merge.h"
#include "router/router.h"
#include "router/routing_table.h"
#include "router/upstream.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/replica.h"
#include "server/server.h"

namespace onex {
namespace router {
namespace {

namespace fs = std::filesystem;

Engine BuildEngineFrom(Dataset d) {
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 24, 8};
  auto built = Engine::Build(std::move(d), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

Engine BuildSmallEngine(uint64_t seed, size_t num_series = 10) {
  GenOptions gen;
  gen.num_series = num_series;
  gen.length = 24;
  gen.seed = seed;
  Dataset d = MakeItalyPower(gen);
  MinMaxNormalize(&d);
  return BuildEngineFrom(std::move(d));
}

UpstreamHealth ReadyLeader() {
  UpstreamHealth h;
  h.reachable = h.live = h.ready = true;
  return h;
}

UpstreamHealth ReadyFollower(double lag_s) {
  UpstreamHealth h = ReadyLeader();
  h.follower = true;
  h.replica_lag_s = lag_s;
  return h;
}

// ------------------------------------------------- shard-set grammar

TEST(ShardSetTest, GrammarMatchesExactStarAndPrefix) {
  EXPECT_FALSE(IsShardSet("sales"));
  EXPECT_TRUE(IsShardSet("sales-*"));
  EXPECT_TRUE(IsShardSet("*"));

  EXPECT_TRUE(MatchesShardSet("sales", "sales"));
  EXPECT_FALSE(MatchesShardSet("sales", "sales-a"));
  EXPECT_TRUE(MatchesShardSet("*", "anything"));
  EXPECT_TRUE(MatchesShardSet("sales-*", "sales-a"));
  EXPECT_TRUE(MatchesShardSet("sales-*", "sales-"));
  EXPECT_FALSE(MatchesShardSet("sales-*", "sale"));
  EXPECT_FALSE(MatchesShardSet("sales-*", "power"));
}

// ---------------------------------------------------- routing table

TEST(RoutingTableTest, ExpandDeduplicatesAndSorts) {
  RoutingTable table({{"h", 1}, {"h", 2}, {"h", 3}});
  table.Update(0, ReadyLeader(), {"sales-b", "power"});
  table.Update(1, ReadyFollower(0.1), {"sales-b", "sales-a"});
  table.Update(2, ReadyFollower(0.2), {"other"});

  EXPECT_EQ(table.Expand("sales-*"),
            (std::vector<std::string>{"sales-a", "sales-b"}));
  EXPECT_EQ(table.Expand("power"), std::vector<std::string>{"power"});
  EXPECT_TRUE(table.Expand("missing-*").empty());
  EXPECT_EQ(table.Expand("*").size(), 4u);
}

TEST(RoutingTableTest, PickReadPrefersLowestLagReadyFollower) {
  RoutingTable table({{"h", 1}, {"h", 2}, {"h", 3}, {"h", 4}});
  table.Update(0, ReadyLeader(), {"power"});
  table.Update(1, ReadyFollower(2.5), {"power"});
  table.Update(2, ReadyFollower(0.5), {"power"});
  // A follower that is not ready never serves reads, however fresh.
  UpstreamHealth draining = ReadyFollower(0.0);
  draining.ready = false;
  table.Update(3, draining, {"power"});

  EXPECT_EQ(table.PickRead("power", {}), std::optional<size_t>(2));
  // Failover exclusion walks to the next-freshest follower, then the
  // leader, then gives up.
  EXPECT_EQ(table.PickRead("power", {2}), std::optional<size_t>(1));
  EXPECT_EQ(table.PickRead("power", {2, 1}), std::optional<size_t>(0));
  EXPECT_EQ(table.PickRead("power", {2, 1, 0}), std::nullopt);
  // A dataset only the leader serves skips the follower tier.
  table.Update(0, ReadyLeader(), {"power", "solo"});
  EXPECT_EQ(table.PickRead("solo", {}), std::optional<size_t>(0));
  EXPECT_EQ(table.PickRead("nowhere", {}), std::nullopt);
}

TEST(RoutingTableTest, PickWriteRequiresReadyNonFollower) {
  RoutingTable table({{"h", 1}, {"h", 2}});
  table.Update(0, ReadyFollower(0.0), {"power"});
  table.Update(1, ReadyLeader(), {"power"});
  EXPECT_EQ(table.PickWrite("power"), std::optional<size_t>(1));

  UpstreamHealth down = ReadyLeader();
  down.ready = false;
  table.Update(1, down, {"power"});
  EXPECT_EQ(table.PickWrite("power"), std::nullopt);
}

// ---------------------------------------------------- probe parsers

TEST(ProbeParseTest, HealthReplyYieldsRoleAndLag) {
  server::WireResponse reply;
  reply.ok = true;
  reply.kind = "Health";
  reply.header = {{"live", "1"}, {"ready", "1"}};
  reply.payload = {"check name=workers ok=1",
                   "check name=replica_lag ok=1 lag_s=0.250 budget_s=5.000 "
                   "applied_seq=14"};
  const UpstreamHealth follower = UpstreamPool::ParseHealth(reply);
  EXPECT_TRUE(follower.reachable);
  EXPECT_TRUE(follower.live);
  EXPECT_TRUE(follower.ready);
  EXPECT_TRUE(follower.follower);
  EXPECT_DOUBLE_EQ(follower.replica_lag_s, 0.25);

  // No replica_lag gate row: a leader, not a follower with zero lag.
  reply.payload = {"check name=workers ok=1"};
  reply.header["ready"] = "0";
  const UpstreamHealth leader = UpstreamPool::ParseHealth(reply);
  EXPECT_TRUE(leader.reachable);
  EXPECT_FALSE(leader.follower);
  EXPECT_FALSE(leader.ready);

  server::WireResponse bad;
  bad.ok = false;
  bad.code = "IO_ERROR";
  EXPECT_FALSE(UpstreamPool::ParseHealth(bad).reachable);
}

TEST(ProbeParseTest, ListReplyYieldsDatasetNames) {
  server::WireResponse reply;
  reply.ok = true;
  reply.kind = "List";
  reply.payload = {"dataset name=power resident=1 pinned=0 durable=1 dirty=0",
                   "dataset name=ecg resident=0 pinned=0 durable=1 dirty=0",
                   "unrelated line"};
  EXPECT_EQ(UpstreamPool::ParseDatasets(reply),
            (std::vector<std::string>{"power", "ecg"}));
  reply.ok = false;
  EXPECT_TRUE(UpstreamPool::ParseDatasets(reply).empty());
}

// ------------------------------------------------------- merge units

TEST(MergeTest, KeepLimitTracksQueryShape) {
  EXPECT_EQ(MergeKeepLimit(QueryRequest(BestMatchRequest{{0.1}, 0})), 1u);
  EXPECT_EQ(MergeKeepLimit(QueryRequest(KSimilarRequest{{0.1}, 7, 0})), 7u);
  EXPECT_EQ(MergeKeepLimit(QueryRequest(RangeWithinRequest{{0.1}, 0.2, 0,
                                                           false})),
            std::numeric_limits<size_t>::max());
  EXPECT_TRUE(IsMatchShaped(QueryRequest(BestMatchRequest{{0.1}, 0})));
  EXPECT_FALSE(IsMatchShaped(QueryRequest(SeasonalRequest{{}, 8})));
}

TEST(MergeTest, MatchRowsRankByDistanceWithDeterministicTies) {
  const std::vector<std::vector<std::string>> legs = {
      {"match series=0 start=0 length=8 distance=0.5 group=1",
       "match series=1 start=2 length=8 distance=0.125 group=2"},
      {"match series=0 start=4 length=8 distance=0.125 group=1",
       "match series=2 start=0 length=8 distance=0.25 group=3",
       "match series=3 start=0 length=8 distance=nonsense"}};

  const auto merged = MergeMatchRows(legs, 4);
  ASSERT_EQ(merged.size(), 4u);
  // Equal distances tie-break by leg index, then arrival order; the
  // malformed row sorts last (+inf) and is cut by the keep limit.
  EXPECT_EQ(merged[0], legs[0][1]);
  EXPECT_EQ(merged[1], legs[1][0]);
  EXPECT_EQ(merged[2], legs[1][1]);
  EXPECT_EQ(merged[3], legs[0][0]);

  EXPECT_EQ(MergeMatchRows(legs, 1),
            std::vector<std::string>{legs[0][1]});
  EXPECT_EQ(MatchRowDistance("match series=0"),
            std::numeric_limits<double>::infinity());
}

TEST(MergeTest, StatsSumAcrossLegsAndRenderServerFormat) {
  MergedStats stats;
  stats.Absorb("stats lengths_scanned=3 reps_compared=10 reps_pruned=4 "
               "members_compared=7 lemma2_admitted=1");
  stats.Absorb("stats lengths_scanned=2 reps_compared=5 reps_pruned=1 "
               "members_compared=3 lemma2_admitted=0");
  EXPECT_EQ(stats.Render(),
            "stats lengths_scanned=5 reps_compared=15 reps_pruned=5 "
            "members_compared=10 lemma2_admitted=1\n");
}

TEST(MergeTest, SplitFinalPayloadRoutesRowsStatsAndTrace) {
  MergedStats stats;
  std::vector<std::string> rows;
  std::vector<std::string> extra;
  SplitFinalPayload(
      {"stats lengths_scanned=1 reps_compared=2 reps_pruned=0 "
       "members_compared=2 lemma2_admitted=0",
       "match series=0 start=0 length=8 distance=0.5 group=1",
       "group id=3 members=2", "TRACE stage=cascade us=12"},
      &stats, &rows, &extra);
  EXPECT_EQ(stats.lengths_scanned, 1u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], "group id=3 members=2");
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0], "TRACE stage=cascade us=12");
}

TEST(MergeTest, RenderMergedFinalMatchesServerGrammar) {
  MergedStats stats;
  stats.Absorb("stats lengths_scanned=3 reps_compared=4 reps_pruned=2 "
               "members_compared=1 lemma2_admitted=0");
  const std::vector<std::string> rows = {
      "match series=1 start=2 length=8 distance=0.125 group=2"};
  EXPECT_EQ(RenderMergedFinal("KSimilar", 7, rows, 1234, false, "", stats,
                              {}),
            "OK KSimilar id=7 matches=1 latency_us=1234\n"
            "stats lengths_scanned=3 reps_compared=4 reps_pruned=2 "
            "members_compared=1 lemma2_admitted=0\n"
            "match series=1 start=2 length=8 distance=0.125 group=2\n"
            ".\n");
  // Partial coverage keeps the v3 partial/interrupt header grammar, and
  // the untagged form drops id= exactly like the server.
  const std::string partial = RenderMergedFinal(
      "Seasonal", 0, {}, 10, true, "IO_ERROR", MergedStats{}, {});
  EXPECT_EQ(partial.substr(0, partial.find('\n')),
            "OK Seasonal groups=0 latency_us=10 partial=1 "
            "interrupt=IO_ERROR");
}

TEST(MergeTest, RemainingBudgetClampsButNeverInventsADeadline) {
  EXPECT_EQ(RemainingBudgetMs(0, 12345), 0u);   // Unbounded stays so.
  EXPECT_EQ(RemainingBudgetMs(100, 40), 60u);
  EXPECT_EQ(RemainingBudgetMs(100, 100), 1u);   // Exhausted: bounce fast,
  EXPECT_EQ(RemainingBudgetMs(100, 5000), 1u);  // never run unbounded.
}

// -------------------------------------------- single-upstream fixture

/// One in-process server (non-durable catalog) behind an in-process
/// router. Datasets: the sharded pair sales-a / sales-b (one normalized
/// union split in half) plus the union itself for parity runs.
class RouterWireTest : public ::testing::Test {
 protected:
  void StartUpstream(server::ServerOptions options = {}) {
    catalog_ = std::make_shared<server::Catalog>(server::CatalogOptions{});
    GenOptions gen;
    gen.num_series = 20;
    gen.length = 24;
    gen.seed = 42;
    union_data_ = MakeItalyPower(gen);
    MinMaxNormalize(&union_data_);  // Normalize BEFORE splitting: shard
                                    // rows must be byte-comparable.
    Dataset a("sales-a");
    Dataset b("sales-b");
    for (size_t i = 0; i < union_data_.size(); ++i) {
      (i < 10 ? a : b).Add(union_data_[i]);
    }
    catalog_->Register("sales-a", BuildEngineFrom(std::move(a)));
    catalog_->Register("sales-b", BuildEngineFrom(std::move(b)));
    Dataset u = union_data_;
    catalog_->Register("union", BuildEngineFrom(std::move(u)));
    auto started = server::Server::Start(std::move(options), catalog_);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    upstream_ = std::move(started).value();
  }

  void StartRouter() {
    RouterOptions options;
    options.upstreams = {{"127.0.0.1", upstream_->port()}};
    options.pool.probe_interval_ms = 60000;  // Tests re-probe by hand.
    auto started = Router::Start(options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    router_ = std::move(started).value();
  }

  void TearDown() override {
    if (router_) router_->Stop();
  }

  server::Client Connect(uint16_t port) {
    auto client = server::Client::Connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// An in-dataset probe: a subsequence of one union series, so both
  /// the union run and exactly one shard contain a zero-distance match.
  std::vector<double> Probe(size_t series, size_t start, size_t len) {
    const auto view = union_data_[series].Subsequence(
        static_cast<uint32_t>(start), len);
    return {view.begin(), view.end()};
  }

  /// (series, start, length, distance-string) of every match row, with
  /// union series ids folded onto shard-local ids when `remap_union` —
  /// shard B re-numbers union series 10..19 as 0..9.
  static std::multiset<std::tuple<int, int, int, std::string>> MatchSet(
      const std::vector<std::string>& payload, bool remap_union) {
    std::multiset<std::tuple<int, int, int, std::string>> out;
    for (const std::string& row : payload) {
      if (row.rfind("match ", 0) != 0) continue;
      const auto kv = server::ParseKeyValues(row);
      int series = std::atoi(kv.at("series").c_str());
      if (remap_union && series >= 10) series -= 10;
      out.emplace(series, std::atoi(kv.at("start").c_str()),
                  std::atoi(kv.at("length").c_str()), kv.at("distance"));
    }
    return out;
  }

  Dataset union_data_;
  std::shared_ptr<server::Catalog> catalog_;
  std::unique_ptr<server::Server> upstream_;
  std::unique_ptr<Router> router_;
};

TEST_F(RouterWireTest, SpeaksTheWireProtocolAndRendersOwnIntrospection) {
  StartUpstream();
  StartRouter();
  server::Client client = Connect(router_->port());
  EXPECT_EQ(client.greeting(), "ONEX/8 ready");

  auto ping = client.Roundtrip("ping");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value().kind, "Pong");

  // LIST aggregates upstream datasets with upstream counts.
  auto list = client.Roundtrip("list");
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(list.value().ok);
  EXPECT_EQ(list.value().header.at("datasets"), "3");

  // HEALTH renders one check row per upstream with its probed role.
  auto health = client.Roundtrip("health");
  ASSERT_TRUE(health.ok());
  ASSERT_TRUE(health.value().ok);
  EXPECT_EQ(health.value().header.at("ready"), "1");
  ASSERT_EQ(health.value().payload.size(), 1u);
  EXPECT_NE(health.value().payload[0].find("role=leader"),
            std::string::npos);

  // METRICS speaks the exposition grammar with the router families.
  auto metrics = client.Roundtrip("metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics.value().ok);
  std::set<std::string> families;
  for (const std::string& line : metrics.value().payload) {
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t space = line.find(' ', 7);
      families.insert(line.substr(7, space - 7));
    }
  }
  for (const char* family :
       {"onex_router_requests_total", "onex_router_failovers_total",
        "onex_router_scatter_queries_total",
        "onex_router_cancel_fanout_total",
        "onex_router_upstream_requests_total",
        "onex_router_merge_latency_seconds",
        "onex_router_upstream_healthy", "onex_router_upstream_lag_seconds",
        "onex_process_uptime_seconds"}) {
    EXPECT_TRUE(families.count(family)) << family;
  }

  // Node-local verbs are refused, not half-answered.
  auto stats = client.Roundtrip("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().code, "NOT_SUPPORTED");
  auto manifest = client.Roundtrip("manifest");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value().code, "NOT_SUPPORTED");

  // Queries with nothing bound get the structured NO_DATASET error.
  auto unbound = client.Roundtrip(server::RenderRequestLine(
      QueryRequest(BestMatchRequest{Probe(0, 0, 8), 8})));
  ASSERT_TRUE(unbound.ok());
  EXPECT_EQ(unbound.value().code, server::kNoDatasetCode);

  auto missing = client.Roundtrip("use nothing-*");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().code, "NOT_FOUND");
}

TEST_F(RouterWireTest, ScatteredRangeQueryMatchesSingleNodeUnionRun) {
  StartUpstream();
  StartRouter();

  const QueryRequest query(
      RangeWithinRequest{Probe(2, 4, 8), 0.3, 8, /*exact_distances=*/true});
  const std::string line = server::RenderRequestLine(query);

  // The single-node union run: one engine over the pre-split dataset.
  server::Client direct = Connect(upstream_->port());
  ASSERT_TRUE(direct.Roundtrip("use union").ok());
  auto union_reply = direct.Roundtrip(line);
  ASSERT_TRUE(union_reply.ok());
  ASSERT_TRUE(union_reply.value().ok) << union_reply.value().message;
  const auto union_set = MatchSet(union_reply.value().payload, true);
  ASSERT_FALSE(union_set.empty());

  // The scattered run: one shard-set query through the router.
  server::Client routed = Connect(router_->port());
  auto use = routed.Roundtrip("use sales-*");
  ASSERT_TRUE(use.ok());
  ASSERT_TRUE(use.value().ok) << use.value().message;
  EXPECT_EQ(use.value().header.at("datasets"), "2");
  auto merged = routed.Roundtrip(line);
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(merged.value().ok) << merged.value().message;
  EXPECT_EQ(merged.value().kind, "RangeWithin");
  EXPECT_FALSE(merged.value().partial());
  EXPECT_EQ(merged.value().header.at("matches"),
            std::to_string(union_set.size()));

  // Same matches, same exact distances — shard ids are shard-local, so
  // the union ids fold onto them (shard B = union series - 10).
  EXPECT_EQ(MatchSet(merged.value().payload, false), union_set);

  // The same scatter addressed per-query (v8 dataset= attribute, no
  // session binding) returns the same answer.
  server::Client tagged = Connect(router_->port());
  server::Client::SubmitOptions submit;
  submit.dataset = "sales-*";
  auto handle = tagged.Submit(query, submit);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok()) << final.status().ToString();
  ASSERT_TRUE(final.value().ok) << final.value().message;
  EXPECT_EQ(MatchSet(final.value().payload, false), union_set);

  // A direct server, by contrast, refuses the shard-set spelling and
  // points at the router.
  auto rejected = direct.Submit(query, submit);
  ASSERT_TRUE(rejected.ok());
  auto err = rejected.value().Wait();
  ASSERT_TRUE(err.ok());
  EXPECT_FALSE(err.value().ok);
  EXPECT_EQ(err.value().code, "INVALID_ARGUMENT");
}

TEST_F(RouterWireTest, ScatteredTopKTruncatesToOneGlobalRanking) {
  StartUpstream();
  StartRouter();

  // q1k is "the k nearest members of the BEST group" — the union
  // engine may pick a different best group than either shard, so the
  // scatter contract is a global re-rank of the per-shard answers, not
  // union-engine parity (q1r covers that; its set IS decomposable).
  const QueryRequest query(KSimilarRequest{Probe(13, 2, 8), 5, 8});
  const std::string line = server::RenderRequestLine(query);

  auto distances_of = [](const std::vector<std::string>& payload) {
    std::vector<std::string> out;
    for (const std::string& row : payload) {
      if (row.rfind("match ", 0) == 0) {
        out.push_back(server::ParseKeyValues(row).at("distance"));
      }
    }
    return out;
  };

  // Expected: the 5 best of the two per-shard answers, merged by hand.
  server::Client direct = Connect(upstream_->port());
  std::vector<double> expected;
  for (const char* shard : {"sales-a", "sales-b"}) {
    ASSERT_TRUE(direct.Roundtrip(std::string("use ") + shard).ok());
    auto reply = direct.Roundtrip(line);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply.value().ok) << reply.value().message;
    for (const std::string& d : distances_of(reply.value().payload)) {
      expected.push_back(std::strtod(d.c_str(), nullptr));
    }
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_GE(expected.size(), 5u);
  expected.resize(5);

  server::Client routed = Connect(router_->port());
  ASSERT_TRUE(routed.Roundtrip("use sales-*").ok());
  auto merged = routed.Roundtrip(line);
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(merged.value().ok) << merged.value().message;
  EXPECT_EQ(merged.value().header.at("matches"), "5");

  const auto merged_text = distances_of(merged.value().payload);
  ASSERT_EQ(merged_text.size(), 5u);  // k total, not k per shard.
  std::vector<double> got;
  for (const std::string& d : merged_text) {
    got.push_back(std::strtod(d.c_str(), nullptr));
  }
  EXPECT_EQ(got, expected);  // One global ascending ranking.
  EXPECT_GE(router_->metrics().requests(), 1u);
}

TEST_F(RouterWireTest, CancelFansOutToEveryLegAndMergesPartials) {
  // The single worker parks at job start until released, so the CANCEL
  // lands while the scattered query is provably in flight upstream.
  std::mutex mutex;
  std::condition_variable cv;
  bool job_started = false;
  bool release = false;
  server::ServerOptions options;
  options.num_workers = 1;
  options.on_job_start = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    job_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  StartUpstream(std::move(options));
  StartRouter();

  server::Client client = Connect(router_->port());
  ASSERT_TRUE(client.Roundtrip("use sales-*").ok());
  auto handle = client.Submit(QueryRequest(
      RangeWithinRequest{Probe(0, 0, 8), 10.0, 0, false}));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return job_started; });
  }

  // CANCEL overtakes the in-flight query on the session thread and is
  // acknowledged with the server's own cancel grammar.
  EXPECT_TRUE(handle.value().Cancel().ok());
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

  // The fan-out shows up on the router's own exposition.
  server::Client metrics_client = Connect(router_->port());
  auto metrics = metrics_client.Roundtrip("metrics");
  ASSERT_TRUE(metrics.ok());
  bool saw_fanout = false;
  for (const std::string& line : metrics.value().payload) {
    if (line.rfind("onex_router_cancel_fanout_total ", 0) == 0) {
      saw_fanout = std::strtod(line.c_str() + line.rfind(' '), nullptr) >= 1;
    }
  }
  EXPECT_TRUE(saw_fanout);
}

TEST_F(RouterWireTest, CancelOfAnIdNotInFlightIsTaggedWithThatId) {
  StartUpstream();
  StartRouter();
  server::Client client = Connect(router_->port());

  // The node's no-op reply: tagged, so a client's demux hands it to the
  // Handle::Cancel() that lost the race with completion.
  auto reply = client.Roundtrip("cancel 99");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply.value().ok);
  EXPECT_EQ(reply.value().code, "NOT_FOUND");
  EXPECT_EQ(reply.value().id(), 99u);

  // The admin form names a session by fd, as on a node.
  auto admin = client.Roundtrip("cancel 99999/1");
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();
  EXPECT_EQ(admin.value().code, "NOT_FOUND");
}

TEST_F(RouterWireTest, DisconnectCancelsEveryLegUpstream) {
  // As in CancelFansOutToEveryLegAndMergesPartials: the single worker
  // parks at job start, so the leg is provably in flight upstream when
  // the client goes away.
  std::mutex mutex;
  std::condition_variable cv;
  bool job_started = false;
  bool release = false;
  server::ServerOptions options;
  options.num_workers = 1;
  options.on_job_start = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    job_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  StartUpstream(std::move(options));
  StartRouter();

  auto cancel_fanout = [&] {
    const std::string text =
        router_->metrics().RenderPrometheus(router_->table().Snapshot());
    const std::string key = "\nonex_router_cancel_fanout_total ";
    const size_t at = text.find(key);
    return at == std::string::npos
               ? 0.0
               : std::strtod(text.c_str() + at + key.size(), nullptr);
  };
  auto within_1s = [](const std::function<bool()>& done) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (!done() && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return done();
  };

  bool started = false;
  {
    server::Client client = Connect(router_->port());
    EXPECT_TRUE(client.Roundtrip("use sales-*").ok());
    auto handle = client.Submit(QueryRequest(
        RangeWithinRequest{Probe(0, 0, 8), 10.0, 0, false}));
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    std::unique_lock<std::mutex> lock(mutex);
    started = cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return job_started; });
  }  // The client disconnects with its query in flight.
  EXPECT_TRUE(started);

  // The router fans the cancel out while the leg is still parked...
  EXPECT_TRUE(within_1s([&] { return cancel_fanout() >= 1.0; }));
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  // ...so the upstream runs it cancelled instead of to completion.
  EXPECT_TRUE(within_1s([&] { return upstream_->metrics().cancelled() >= 1; }));
}

TEST_F(RouterWireTest, DeadlineBudgetPropagatesToUpstreamLegs) {
  // Stall the worker past the deadline: the upstream starts the query
  // already expired, which only happens if the router forwarded the
  // client's budget (minus elapsed time) on the upstream leg.
  server::ServerOptions options;
  options.num_workers = 1;
  options.on_job_start = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  };
  StartUpstream(std::move(options));
  StartRouter();

  server::Client client = Connect(router_->port());
  ASSERT_TRUE(client.Roundtrip("use sales-a").ok());
  server::Client::SubmitOptions submit;
  submit.deadline_ms = 5;
  auto handle = client.Submit(
      QueryRequest(RangeWithinRequest{Probe(0, 0, 8), 10.0, 0, false}),
      submit);
  ASSERT_TRUE(handle.ok());
  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok()) << final.status().ToString();
  ASSERT_TRUE(final.value().ok) << final.value().message;
  EXPECT_TRUE(final.value().partial());
  EXPECT_EQ(final.value().header.at("interrupt"), "DEADLINE_EXCEEDED");
}

TEST_F(RouterWireTest, RestartedNodeAnswersTheFirstReadAfterItsProbe) {
  StartUpstream();
  StartRouter();
  server::Client client = Connect(router_->port());
  ASSERT_TRUE(client.Roundtrip("use union").ok());
  const std::string line = server::RenderRequestLine(
      QueryRequest(BestMatchRequest{Probe(3, 2, 8), 8}));
  // The first read dials the router's query link to the node.
  auto before = client.Roundtrip(line);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(before.value().ok) << before.value().message;

  // Stop the only replica, let its link die, and bring the node back
  // on the same port. The probe sees it ready again.
  const uint16_t port = upstream_->port();
  upstream_->Stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  server::ServerOptions options;
  options.port = port;
  auto restarted = server::Server::Start(std::move(options), catalog_);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  upstream_ = std::move(restarted).value();
  router_->pool().ProbeNow(0);
  ASSERT_TRUE(router_->table().Snapshot()[0].health.ready);

  // No untried replica is left, so the leg re-dials the same node
  // instead of failing on the dead link.
  auto after = client.Roundtrip(line);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(after.value().ok)
      << after.value().code << " " << after.value().message;
  EXPECT_FALSE(after.value().partial());
  EXPECT_EQ(after.value().payload, before.value().payload);
}

// --------------------------------------- replicated-topology fixture

/// A durable leader plus one synced read-only follower behind the
/// router — the deployment shape the routing tier exists for.
class RouterReplicatedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string unique =
        std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    leader_dir_ = fs::path(::testing::TempDir()) / ("rt_leader_" + unique);
    follower_dir_ =
        fs::path(::testing::TempDir()) / ("rt_follower_" + unique);
    fs::create_directories(leader_dir_);
    fs::create_directories(follower_dir_);
  }

  void TearDown() override {
    if (router_) router_->Stop();
    std::error_code ec;
    fs::remove_all(leader_dir_, ec);
    fs::remove_all(follower_dir_, ec);
  }

  void StartLeader() {
    server::CatalogOptions catalog_options;
    catalog_options.data_dir = leader_dir_.string();
    catalog_options.durable = true;
    catalog_options.storage.background_checkpointer = false;
    leader_catalog_ =
        std::make_shared<server::Catalog>(catalog_options);
    leader_catalog_->Register("power", BuildSmallEngine(42));
    auto started =
        server::Server::Start(server::ServerOptions{}, leader_catalog_);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    leader_ = std::move(started).value();
  }

  void StartFollower(server::ServerOptions options = {}) {
    server::CatalogOptions catalog_options;
    catalog_options.data_dir = follower_dir_.string();
    catalog_options.durable = true;
    catalog_options.read_only = true;
    catalog_options.storage.background_checkpointer = false;
    follower_catalog_ =
        std::make_shared<server::Catalog>(catalog_options);
    server::ReplicaOptions replica;
    replica.leader_host = "127.0.0.1";
    replica.leader_port = leader_->port();
    replica.data_dir = follower_dir_.string();
    syncer_ = std::make_unique<server::ReplicaSyncer>(
        replica, follower_catalog_.get());
    ASSERT_TRUE(syncer_->SyncOnce().ok());
    options.replica_status = [this] { return syncer_->status(); };
    options.replica_lag_budget_s = 3600.0;
    auto started =
        server::Server::Start(std::move(options), follower_catalog_);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    follower_ = std::move(started).value();
  }

  void StartRouter() {
    RouterOptions options;
    options.upstreams = {{"127.0.0.1", leader_->port()},
                         {"127.0.0.1", follower_->port()}};
    options.pool.probe_interval_ms = 60000;
    auto started = Router::Start(options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    router_ = std::move(started).value();
  }

  server::Client Connect(uint16_t port) {
    auto client = server::Client::Connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  static QueryRequest PowerQuery() {
    std::vector<double> probe(8);
    for (size_t i = 0; i < probe.size(); ++i) {
      probe[i] = 0.2 + 0.05 * static_cast<double>(i % 4);
    }
    return QueryRequest(KSimilarRequest{std::move(probe), 4, 8});
  }

  fs::path leader_dir_;
  fs::path follower_dir_;
  std::shared_ptr<server::Catalog> leader_catalog_;
  std::shared_ptr<server::Catalog> follower_catalog_;
  std::unique_ptr<server::ReplicaSyncer> syncer_;
  std::unique_ptr<server::Server> leader_;
  std::unique_ptr<server::Server> follower_;
  std::unique_ptr<Router> router_;
};

TEST_F(RouterReplicatedTest, ReadsServeFromFollowerWritesGoToLeader) {
  StartLeader();
  StartFollower();
  StartRouter();

  // The synchronous startup probes learned both roles.
  const auto snapshot = router_->table().Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_FALSE(snapshot[0].health.follower);
  EXPECT_TRUE(snapshot[1].health.follower);
  EXPECT_TRUE(snapshot[1].health.ready);

  server::Client client = Connect(router_->port());
  ASSERT_TRUE(client.Roundtrip("use power").ok());
  auto read = client.Roundtrip(server::RenderRequestLine(PowerQuery()));
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read.value().ok) << read.value().message;
  // The read went to the follower, not the leader.
  EXPECT_EQ(router_->metrics().upstream_requests(1, true), 1u);
  EXPECT_EQ(router_->metrics().upstream_requests(0, false), 0u);

  // A write through the same session is forwarded to the leader and
  // relayed in the server's own append grammar.
  std::vector<double> values(24, 0.5);
  auto append = client.Roundtrip(
      server::RenderAppendLine(server::AppendRequest{values, 3}));
  ASSERT_TRUE(append.ok());
  ASSERT_TRUE(append.value().ok) << append.value().message;
  EXPECT_EQ(append.value().kind, "Append");
  EXPECT_EQ(append.value().header.at("series"), "10");
  EXPECT_EQ(append.value().header.at("durable"), "1");
  EXPECT_EQ(router_->metrics().upstream_requests(0, false), 1u);

  // The leader really holds the append (11 series now); the follower
  // still serves the pre-append state until its next sync.
  server::Client direct = Connect(leader_->port());
  auto use = direct.Roundtrip("use power");
  ASSERT_TRUE(use.ok());
  EXPECT_EQ(use.value().header.at("series"), "11");
}

TEST_F(RouterReplicatedTest, UpstreamDeathMidQueryFailsOverIdempotently) {
  StartLeader();

  // The follower's worker announces the job, then stalls long enough
  // for the test to kill the node under it.
  std::mutex mutex;
  std::condition_variable cv;
  bool job_started = false;
  server::ServerOptions options;
  options.num_workers = 1;
  options.on_job_start = [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      job_started = true;
    }
    cv.notify_all();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  };
  StartFollower(std::move(options));
  StartRouter();

  // Baseline: the same query straight at the leader.
  const std::string line = server::RenderRequestLine(PowerQuery());
  server::Client direct = Connect(leader_->port());
  ASSERT_TRUE(direct.Roundtrip("use power").ok());
  auto baseline = direct.Roundtrip(line);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(baseline.value().ok);

  server::Client client = Connect(router_->port());
  ASSERT_TRUE(client.Roundtrip("use power").ok());
  auto handle = client.Submit(PowerQuery());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return job_started; });
  }
  // The query is in flight on the follower. Kill it: the leg's link
  // dies, the router drops it at once (the wire client never re-dials),
  // and re-submits the tagged query to the leader — idempotently, with
  // the original id (reads only; the write path never retries).
  follower_->Stop();

  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok()) << final.status().ToString();
  ASSERT_TRUE(final.value().ok) << final.value().message;
  // Full answer, not a partial: the failover leg succeeded.
  EXPECT_FALSE(final.value().partial());
  EXPECT_GE(router_->metrics().failovers(), 1u);
  EXPECT_GE(router_->metrics().upstream_requests(0, false), 1u);

  // Byte-identical payload to the leader-direct baseline (the header
  // differs only in id/latency, which are per-run by construction).
  EXPECT_EQ(final.value().payload, baseline.value().payload);
  EXPECT_EQ(final.value().header.at("matches"),
            baseline.value().header.at("matches"));
}

TEST_F(RouterReplicatedTest, ProbeNoticesFollowerDeathAndRoutesAround) {
  StartLeader();
  StartFollower();
  StartRouter();

  follower_->Stop();
  router_->pool().ProbeNow(1);
  const auto snapshot = router_->table().Snapshot();
  EXPECT_FALSE(snapshot[1].health.reachable);
  EXPECT_FALSE(snapshot[1].health.ready);

  // Reads now fall back to the leader without a failover (the table
  // already routed around the dead follower).
  server::Client client = Connect(router_->port());
  ASSERT_TRUE(client.Roundtrip("use power").ok());
  auto read = client.Roundtrip(server::RenderRequestLine(PowerQuery()));
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read.value().ok) << read.value().message;
  EXPECT_EQ(router_->metrics().upstream_requests(0, false), 1u);
  EXPECT_EQ(router_->metrics().failovers(), 0u);
}

// ------------------------------------------------ sharded fixture

/// In-process nodes, each serving some of the shards shard-0..3, behind
/// one router. A held node parks every job at start until Release().
class RouterShardTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Release();
    if (router_) router_->Stop();
    for (auto& node : nodes_) node->Stop();
  }

  void StartNode(const std::vector<int>& shards,
                 server::ServerOptions options = {}) {
    auto catalog =
        std::make_shared<server::Catalog>(server::CatalogOptions{});
    for (const int shard : shards) {
      catalog->Register("shard-" + std::to_string(shard),
                        BuildSmallEngine(100 + shard));
    }
    auto started = server::Server::Start(std::move(options), catalog);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    nodes_.push_back(std::move(started).value());
  }

  server::ServerOptions HeldNode() {
    server::ServerOptions options;
    options.num_workers = 1;
    options.on_job_start = [this] {
      std::unique_lock<std::mutex> lock(hold_mutex_);
      held_ = true;
      hold_cv_.notify_all();
      hold_cv_.wait(lock, [this] { return released_; });
    };
    return options;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(hold_mutex_);
      released_ = true;
    }
    hold_cv_.notify_all();
  }

  void StartRouter() {
    RouterOptions options;
    for (const auto& node : nodes_) {
      options.upstreams.push_back({"127.0.0.1", node->port()});
    }
    options.pool.probe_interval_ms = 60000;
    auto started = Router::Start(options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    router_ = std::move(started).value();
  }

  /// A default client: blocking, with the kernel's delayed ACKs.
  server::Client ConnectBound() {
    auto client = server::Client::Connect("127.0.0.1", router_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    auto use = client.value().Roundtrip("use shard-*");
    EXPECT_TRUE(use.ok() && use.value().ok);
    return std::move(client).value();
  }

  static QueryRequest ShardQuery() {
    std::vector<double> probe(8);
    for (size_t i = 0; i < probe.size(); ++i) {
      probe[i] = 0.2 + 0.05 * static_cast<double>(i % 4);
    }
    return QueryRequest(KSimilarRequest{std::move(probe), 4, 8});
  }

  static size_t ThreadCount() {
    size_t threads = 0;
    for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++threads;
    }
    return threads;
  }

  /// Mappings in this process. A thread that finished but was never
  /// joined has left /proc/self/task, but its stack stays mapped.
  static size_t MappingCount() {
    std::ifstream maps("/proc/self/maps");
    size_t mappings = 0;
    for (std::string line; std::getline(maps, line);) ++mappings;
    return mappings;
  }

  std::vector<std::unique_ptr<server::Server>> nodes_;
  std::unique_ptr<Router> router_;
  std::mutex hold_mutex_;
  std::condition_variable hold_cv_;
  bool held_ = false;
  bool slow_started_ = false;
  bool released_ = false;
};

TEST_F(RouterShardTest, FourLegReadsDoNotWaitOnDelayedAcks) {
  StartNode({0, 1, 2, 3});
  StartRouter();
  server::Client client = ConnectBound();
  const std::string line = server::RenderRequestLine(ShardQuery());

  std::vector<double> elapsed_ms;
  for (int i = 0; i < 20; ++i) {
    const auto started = std::chrono::steady_clock::now();
    auto reply = client.Roundtrip(line);
    elapsed_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - started)
                             .count());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply.value().ok) << reply.value().message;
    EXPECT_FALSE(reply.value().partial());
  }
  std::nth_element(elapsed_ms.begin(), elapsed_ms.begin() + 10,
                   elapsed_ms.end());
  // The four legs share one upstream link. A leg reply held back by
  // Nagle behind an unacknowledged one waits for the router's delayed
  // ACK, whose timer is 40 ms on Linux.
  EXPECT_LT(elapsed_ms[10], 10.0);
}

TEST_F(RouterShardTest, RoutedLatencyIsTimedInMicroseconds) {
  StartNode({0, 1, 2, 3});
  StartRouter();
  server::Client client = ConnectBound();
  const std::string line = server::RenderRequestLine(ShardQuery());
  for (int i = 0; i < 5; ++i) {
    auto reply = client.Roundtrip(line);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply.value().ok) << reply.value().message;
    // Sub-millisecond reads must not truncate to latency_us=0.
    EXPECT_GT(std::stoull(reply.value().header.at("latency_us")), 0u);
  }
}

TEST_F(RouterShardTest, TaggedReadsDoNotAccumulateThreads) {
  StartNode({0, 1, 2, 3});
  StartRouter();
  server::Client client = ConnectBound();
  auto read = [&client] {
    auto handle = client.Submit(ShardQuery());
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    auto final = handle.value().Wait();
    ASSERT_TRUE(final.ok()) << final.status().ToString();
    ASSERT_TRUE(final.value().ok) << final.value().message;
  };
  // Warm up: the upstream link and this client's demux are dialed.
  for (int i = 0; i < 5; ++i) read();
  const size_t threads_before = ThreadCount();
  const size_t mappings_before = MappingCount();
  for (int i = 0; i < 300; ++i) read();
  // Each tagged read had one coordinator; finished ones are joined as
  // the next arrives, so at most the last may still be alive or
  // unjoined.
  EXPECT_LE(ThreadCount(), threads_before + 2);
  EXPECT_LE(MappingCount(), mappings_before + 32);
}

TEST_F(RouterShardTest, DeadLegFailsOverWithoutWaitingForTheOtherLegs) {
  // shard-0's node parks the job until released; shard-1's node is
  // stopped under its in-flight leg and nothing else serves shard-1.
  server::ServerOptions slow;
  slow.num_workers = 1;
  slow.on_job_start = [this] {
    {
      std::lock_guard<std::mutex> lock(hold_mutex_);
      slow_started_ = true;
    }
    hold_cv_.notify_all();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  };
  StartNode({0}, HeldNode());
  StartNode({1}, std::move(slow));
  StartRouter();

  server::Client client = ConnectBound();
  auto handle = client.Submit(ShardQuery());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  {
    std::unique_lock<std::mutex> lock(hold_mutex_);
    hold_cv_.wait(lock, [this] { return held_ && slow_started_; });
  }
  nodes_[1]->Stop();

  // The dead leg fails over while shard-0's leg is still held.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (router_->metrics().failovers() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(router_->metrics().failovers(), 1u);

  Release();
  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok()) << final.status().ToString();
  ASSERT_TRUE(final.value().ok) << final.value().message;
  EXPECT_TRUE(final.value().partial());
  EXPECT_FALSE(final.value().header.at("interrupt").empty());
}

}  // namespace
}  // namespace router
}  // namespace onex
