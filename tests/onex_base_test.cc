// Tests for OnexBase::Build: stats consistency (Table 4 semantics),
// option validation, and index completeness.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/onex_base.h"
#include "core/serialization.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"

namespace onex {
namespace {

Dataset TestDataset(size_t n = 8, size_t len = 24, uint64_t seed = 42) {
  GenOptions options;
  options.num_series = n;
  options.length = len;
  options.seed = seed;
  Dataset d = MakeItalyPower(options);
  MinMaxNormalize(&d);
  return d;
}

TEST(OnexBaseTest, BuildSucceedsAndIndexesAllLengths) {
  OnexOptions options;
  options.lengths = {4, 24, 4};  // 4, 8, 12, 16, 20, 24.
  auto result = OnexBase::Build(TestDataset(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const OnexBase& base = result.value();
  EXPECT_EQ(base.gti().Lengths().size(), 6u);
  for (size_t len : {4u, 8u, 12u, 16u, 20u, 24u}) {
    ASSERT_NE(base.EntryFor(len), nullptr) << len;
    EXPECT_GT(base.EntryFor(len)->NumGroups(), 0u) << len;
  }
  EXPECT_EQ(base.EntryFor(5), nullptr);
}

TEST(OnexBaseTest, StatsCountEverySubsequence) {
  OnexOptions options;
  options.lengths = {4, 24, 4};
  Dataset d = TestDataset();
  const uint64_t expected =
      d.NumSubsequences(4, 24) -
      // NumSubsequences counts every length in [4,24]; the spec strides
      // by 4, so recompute directly instead.
      0;
  (void)expected;
  uint64_t strided = 0;
  for (size_t len = 4; len <= 24; len += 4) {
    strided += d.size() * (24 - len + 1);
  }
  auto result = OnexBase::Build(std::move(d), options);
  ASSERT_TRUE(result.ok());
  const BaseStats& stats = result.value().stats();
  EXPECT_EQ(stats.num_subsequences, strided);
  EXPECT_EQ(stats.num_lengths, 6u);
  EXPECT_GT(stats.num_representatives, 0u);
  EXPECT_LE(stats.num_representatives, stats.num_subsequences);
  EXPECT_GT(stats.build_seconds, 0.0);
  EXPECT_GT(stats.gti_bytes, 0u);
  EXPECT_GT(stats.lsi_bytes, 0u);
  EXPECT_GT(stats.TotalMb(), 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(OnexBaseTest, CompressionImprovesWithLargerSt) {
  Dataset d = TestDataset(10, 24, 3);
  OnexOptions tight;
  tight.st = 0.05;
  tight.lengths = {8, 16, 4};
  OnexOptions loose = tight;
  loose.st = 0.5;
  auto base_tight = OnexBase::Build(d, tight);
  auto base_loose = OnexBase::Build(std::move(d), loose);
  ASSERT_TRUE(base_tight.ok());
  ASSERT_TRUE(base_loose.ok());
  EXPECT_GE(base_tight.value().stats().num_representatives,
            base_loose.value().stats().num_representatives);
}

TEST(OnexBaseTest, SpSpacePopulatedWhenRequested) {
  OnexOptions options;
  options.lengths = {8, 16, 8};
  options.compute_sp_space = true;
  auto result = OnexBase::Build(TestDataset(), options);
  ASSERT_TRUE(result.ok());
  const SpSpace& sp = result.value().sp_space();
  EXPECT_FALSE(sp.empty());
  const MergeThresholds global = sp.Global();
  EXPECT_GE(global.st_final, global.st_half);
  EXPECT_GE(global.st_half, options.st);
}

TEST(OnexBaseTest, SpSpaceSkippedWhenDisabled) {
  OnexOptions options;
  options.lengths = {8, 16, 8};
  options.compute_sp_space = false;
  auto result = OnexBase::Build(TestDataset(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().sp_space().empty());
}

TEST(OnexBaseTest, EmptyDatasetRejected) {
  auto result = OnexBase::Build(Dataset("empty"), OnexOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(OnexBaseTest, InvalidOptionsRejected) {
  OnexOptions bad_st;
  bad_st.st = -1.0;
  EXPECT_FALSE(OnexBase::Build(TestDataset(), bad_st).ok());

  OnexOptions bad_lengths;
  bad_lengths.lengths = {10, 5, 1};  // max < min.
  EXPECT_FALSE(OnexBase::Build(TestDataset(), bad_lengths).ok());

  OnexOptions bad_min;
  bad_min.lengths = {1, 0, 1};  // Subsequences must have >= 2 points.
  EXPECT_FALSE(OnexBase::Build(TestDataset(), bad_min).ok());
}

// An infinite st (or one whose squared join radius overflows) made the
// first subsequence "join" a group that did not exist yet; a NaN st
// built a base whose snapshot failed to load; a NaN window ratio reached
// an undefined float-to-integer cast.
TEST(OnexBaseTest, NonFiniteOrOverflowingThresholdsRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double st : {inf, -inf, std::nan(""), 1e200}) {
    OnexOptions options;
    options.st = st;
    options.lengths = {8, 16, 8};
    auto result = OnexBase::Build(TestDataset(), options);
    ASSERT_FALSE(result.ok()) << st;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument) << st;
  }
  for (double ratio : {std::nan(""), inf}) {
    OnexOptions options;
    options.window_ratio = ratio;
    options.lengths = {8, 16, 8};
    auto result = OnexBase::Build(TestDataset(), options);
    ASSERT_FALSE(result.ok()) << ratio;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument)
        << ratio;
  }
}

TEST(OnexBaseTest, LargestThresholdsBuildAndReload) {
  for (double st : {OnexOptions::kMaxSt, 1e6}) {
    OnexOptions options;
    options.st = st;
    options.window_ratio = 1.0;
    options.lengths = {8, 16, 8};
    auto built = OnexBase::Build(TestDataset(), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    // Every subsequence is within any finite radius this large.
    for (const auto& [length, entry] : built.value().gti().entries()) {
      EXPECT_EQ(entry.NumGroups(), 1u) << length;
    }
    auto bytes = SaveBaseToString(built.value());
    ASSERT_TRUE(bytes.ok());
    auto reloaded = LoadBaseFromBuffer(bytes.value());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(SaveBaseToString(reloaded.value()).value(), bytes.value());
  }
}

TEST(OnexBaseTest, DatasetRetainedForRefResolution) {
  OnexOptions options;
  options.lengths = {8, 8, 1};
  auto result = OnexBase::Build(TestDataset(), options);
  ASSERT_TRUE(result.ok());
  const OnexBase& base = result.value();
  const GtiEntry* entry = base.EntryFor(8);
  ASSERT_NE(entry, nullptr);
  // Every member ref resolves within bounds against the stored dataset.
  for (const auto& group : entry->groups) {
    for (const auto& member : group.members) {
      const auto view = member.ref.View(base.dataset());
      EXPECT_EQ(view.size(), 8u);
    }
  }
}

TEST(OnexBaseTest, DeterministicForSeed) {
  OnexOptions options;
  options.lengths = {8, 16, 8};
  options.seed = 123;
  auto a = OnexBase::Build(TestDataset(), options);
  auto b = OnexBase::Build(TestDataset(), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().stats().num_representatives,
            b.value().stats().num_representatives);
}

}  // namespace
}  // namespace onex
