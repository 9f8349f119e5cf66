// Tests for the in-flight query registry (src/core/inflight.h): slot
// claim/release lifecycle with epoch parity, owner-filtered snapshots,
// saturation behavior (nullptr, never blocking), dataset-name
// truncation, RAII claim moves, and — the one that matters — parity
// between a probe's mirrored cascade counters and the QueryStats the
// query itself returns: Engine::Execute's final mirror publish makes
// them EXACTLY equal at rest, so INSPECT and TRACE can never tell a
// different story about a finished query.

#include "core/inflight.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "core/exec_context.h"
#include "core/query_processor.h"
#include "datagen/registry.h"
#include "dataset/normalize.h"

namespace onex {
namespace {

/// Every test releases what it claims: the registry is process-global,
/// so leaked claims would bleed into sibling tests.
class InflightRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    EXPECT_EQ(InflightRegistry::Global().ActiveCount(nullptr), 0u);
  }
};

TEST_F(InflightRegistryTest, ClaimPublishesIdentityAndReleaseFrees) {
  auto& registry = InflightRegistry::Global();
  const int owner = 0;
  InflightProbe* probe =
      registry.Claim(&owner, /*id=*/42, /*session=*/7, /*kind=*/3, "ecg",
                     /*start_ns=*/1000, /*deadline_ns=*/5000);
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->epoch.load() % 2, 1u) << "active slots have odd epochs";
  EXPECT_EQ(registry.ActiveCount(&owner), 1u);

  const InflightRow row = DecodeProbe(*probe);
  EXPECT_EQ(row.id, 42u);
  EXPECT_EQ(row.session, 7u);
  EXPECT_EQ(row.kind, 3u);
  EXPECT_EQ(row.stage, QueryStage::kQueued);
  EXPECT_EQ(row.start_ns, 1000u);
  EXPECT_EQ(row.deadline_ns, 5000);
  EXPECT_EQ(row.dataset, "ecg");
  EXPECT_FALSE(row.stalled);

  registry.Release(probe);
  EXPECT_EQ(probe->epoch.load() % 2, 0u);
  EXPECT_EQ(registry.ActiveCount(&owner), 0u);
}

TEST_F(InflightRegistryTest, SnapshotFiltersByOwnerAndNullSeesAll) {
  auto& registry = InflightRegistry::Global();
  const int server_a = 0;
  const int server_b = 0;
  InflightProbe* pa =
      registry.Claim(&server_a, 1, 1, 0, "alpha", 0, -1);
  InflightProbe* pb =
      registry.Claim(&server_b, 2, 2, 0, "beta", 0, -1);
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);

  const auto only_a = registry.Snapshot(&server_a);
  ASSERT_EQ(only_a.size(), 1u);
  EXPECT_EQ(only_a[0].dataset, "alpha");

  // The crash dump passes nullptr: every live query, whoever owns it.
  EXPECT_EQ(registry.Snapshot(nullptr).size(), 2u);
  EXPECT_EQ(registry.ActiveCount(nullptr), 2u);

  registry.Release(pa);
  registry.Release(pb);
}

TEST_F(InflightRegistryTest, SaturationReturnsNullInsteadOfBlocking) {
  auto& registry = InflightRegistry::Global();
  const int owner = 0;
  std::vector<InflightProbe*> claimed;
  for (size_t i = 0; i < InflightRegistry::kCapacity; ++i) {
    InflightProbe* p = registry.Claim(&owner, i, 0, 0, "sat", 0, -1);
    ASSERT_NE(p, nullptr) << "slot " << i;
    claimed.push_back(p);
  }
  // The 129th query runs unobserved — a missing INSPECT row is a far
  // better failure mode than a worker blocked on observability.
  EXPECT_EQ(registry.Claim(&owner, 999, 0, 0, "sat", 0, -1), nullptr);
  for (InflightProbe* p : claimed) registry.Release(p);
}

TEST_F(InflightRegistryTest, LongDatasetNameIsTruncatedNotOverrun) {
  auto& registry = InflightRegistry::Global();
  const int owner = 0;
  const std::string long_name(3 * InflightProbe::kDatasetCap, 'x');
  InflightProbe* probe =
      registry.Claim(&owner, 1, 1, 0, long_name, 0, -1);
  ASSERT_NE(probe, nullptr);
  const InflightRow row = DecodeProbe(*probe);
  EXPECT_EQ(row.dataset.size(), InflightProbe::kDatasetCap - 1);
  EXPECT_EQ(row.dataset, long_name.substr(0, InflightProbe::kDatasetCap - 1));
  registry.Release(probe);
}

TEST_F(InflightRegistryTest, RaiiClaimMovesWithoutDoubleRelease) {
  const int owner = 0;
  {
    InflightClaim claim(&owner, 1, 1, 0, "raii", 0, -1);
    ASSERT_NE(claim.probe(), nullptr);
    InflightClaim moved = std::move(claim);
    EXPECT_EQ(claim.probe(), nullptr);
    ASSERT_NE(moved.probe(), nullptr);
    EXPECT_EQ(InflightRegistry::Global().ActiveCount(&owner), 1u);
    // Move-assign over an empty claim; release happens once, at the
    // final holder's destruction.
    InflightClaim sink;
    sink = std::move(moved);
    EXPECT_EQ(InflightRegistry::Global().ActiveCount(&owner), 1u);
  }
  EXPECT_EQ(InflightRegistry::Global().ActiveCount(&owner), 0u);
}

TEST_F(InflightRegistryTest, StagePublishScopeRestoresOnExit) {
  const int owner = 0;
  InflightClaim claim(&owner, 1, 1, 0, "stage", 0, -1);
  ASSERT_NE(claim.probe(), nullptr);
  EXPECT_EQ(claim.probe()->CurrentStage(), QueryStage::kQueued);
  QueryStats stats;
  {
    StageScope outer(&stats, claim.probe(), QueryStage::kRepScan);
    EXPECT_EQ(claim.probe()->CurrentStage(), QueryStage::kRepScan);
    {
      StageScope inner(&stats, claim.probe(), QueryStage::kKnn);
      EXPECT_EQ(claim.probe()->CurrentStage(), QueryStage::kKnn);
    }
    EXPECT_EQ(claim.probe()->CurrentStage(), QueryStage::kRepScan);
  }
  EXPECT_EQ(claim.probe()->CurrentStage(), QueryStage::kQueued);
  // Each scope timed its own stage's field, and nothing else.
  EXPECT_GE(stats.rep_scan_seconds, stats.knn_seconds);
  EXPECT_EQ(stats.member_scan_seconds, 0.0);
  EXPECT_EQ(stats.refine_seconds, 0.0);
  { StageScope unobserved(&stats, nullptr, QueryStage::kRefine); }
  EXPECT_EQ(claim.probe()->CurrentStage(), QueryStage::kQueued);
}

// ------------------------------------------- live-mirror parity

Engine BuildSmallEngine() {
  GenOptions gen;
  gen.num_series = 12;
  gen.length = 32;
  gen.seed = 17;
  auto made = MakeDatasetByName("ECG", gen);
  EXPECT_TRUE(made.ok());
  Dataset dataset = std::move(made).value();
  MinMaxNormalize(&dataset);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 32, 8};
  auto built = Engine::Build(std::move(dataset), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TEST_F(InflightRegistryTest, ProbeCountersMatchQueryStatsExactly) {
  Engine engine = BuildSmallEngine();
  const auto view = engine.dataset()[0].Subsequence(0, 16);

  const int owner = 0;
  InflightClaim claim(&owner, 5, 9, 1, "parity", 0, -1);
  ASSERT_NE(claim.probe(), nullptr);

  ExecContext ctx;
  ctx.probe = claim.probe();
  KSimilarRequest request;
  request.query.assign(view.begin(), view.end());
  request.length = 0;  // any-length: exercises the full LB cascade
  request.k = 3;
  auto response = engine.Execute(QueryRequest(request), ctx);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  // Engine::Execute ends with a final mirror publish, so at rest the
  // probe and the response tell the SAME cascade story — not
  // "eventually consistent", equal.
  const CascadeStats& stats = response.value().stats.cascade;
  const InflightRow row = DecodeProbe(*claim.probe());
  EXPECT_EQ(row.candidates, stats.candidates);
  EXPECT_EQ(row.pruned_kim, stats.pruned_kim);
  EXPECT_EQ(row.pruned_keogh, stats.pruned_keogh);
  EXPECT_EQ(row.dtw_abandoned, stats.dtw_abandoned);
  EXPECT_EQ(row.dtw_completed, stats.dtw_completed);
  // And the query actually looked at something, or parity is vacuous.
  EXPECT_GT(row.candidates, 0u);
}

TEST_F(InflightRegistryTest, ProbeFreeExecutionIsUnchanged) {
  Engine engine = BuildSmallEngine();
  const auto view = engine.dataset()[0].Subsequence(0, 16);
  KSimilarRequest request;
  request.query.assign(view.begin(), view.end());
  request.length = 0;
  request.k = 3;

  ExecContext with_probe_ctx;
  const int owner = 0;
  InflightClaim claim(&owner, 1, 1, 1, "twin", 0, -1);
  with_probe_ctx.probe = claim.probe();
  auto with_probe = engine.Execute(QueryRequest(request), with_probe_ctx);
  auto without = engine.Execute(QueryRequest(request), ExecContext{});
  ASSERT_TRUE(with_probe.ok());
  ASSERT_TRUE(without.ok());

  // The mirror observes; it must never steer. Same matches, same
  // cascade arithmetic, probe or no probe.
  const auto& a = std::get<MatchResult>(with_probe.value().payload);
  const auto& b = std::get<MatchResult>(without.value().payload);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].ref.series, b.matches[i].ref.series);
    EXPECT_DOUBLE_EQ(a.matches[i].distance, b.matches[i].distance);
  }
  EXPECT_EQ(with_probe.value().stats.cascade.candidates,
            without.value().stats.cascade.candidates);
  EXPECT_EQ(with_probe.value().stats.cascade.dtw_completed,
            without.value().stats.cascade.dtw_completed);
}

}  // namespace
}  // namespace onex
