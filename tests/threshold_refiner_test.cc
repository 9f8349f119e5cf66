// Tests for the varying-ST refiner (paper Sec. 5.2, Algorithm 2.C):
// identity at ST' = ST, splits for smaller thresholds, Dc-guided
// cascading merges for larger ones, and member conservation throughout.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/onex_base.h"
#include "core/query_processor.h"
#include "core/threshold_refiner.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "distance/euclidean.h"
#include "scalar_grouping.h"

namespace onex {
namespace {

Dataset TestDataset(size_t n = 10, uint64_t seed = 42) {
  GenOptions options;
  options.num_series = n;
  options.length = 24;
  options.seed = seed;
  Dataset d = MakeItalyPower(options);
  MinMaxNormalize(&d);
  return d;
}

OnexBase BuildBase(double st = 0.2) {
  OnexOptions options;
  options.st = st;
  options.lengths = {8, 16, 8};
  auto result = OnexBase::Build(TestDataset(), options);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

uint64_t KeyOf(const SubsequenceRef& ref) {
  return (static_cast<uint64_t>(ref.series) << 40) |
         (static_cast<uint64_t>(ref.start) << 16) | ref.length;
}

std::multiset<uint64_t> MemberKeys(const GtiEntry& entry) {
  std::multiset<uint64_t> keys;
  for (const auto& group : entry.groups) {
    for (const auto& member : group.members) keys.insert(KeyOf(member.ref));
  }
  return keys;
}

TEST(ThresholdRefinerTest, SameThresholdReturnsIdenticalStructure) {
  OnexBase base = BuildBase(0.2);
  ThresholdRefiner refiner(&base);
  auto refined = refiner.RefineLength(8, 0.2);
  ASSERT_TRUE(refined.ok());
  const GtiEntry* original = base.EntryFor(8);
  EXPECT_EQ(refined.value().NumGroups(), original->NumGroups());
  EXPECT_EQ(MemberKeys(refined.value()), MemberKeys(*original));
}

TEST(ThresholdRefinerTest, SplitPreservesMembersAndAddsGroups) {
  OnexBase base = BuildBase(0.3);
  ThresholdRefiner refiner(&base);
  const GtiEntry* original = base.EntryFor(8);
  auto refined = refiner.RefineLength(8, 0.1);
  ASSERT_TRUE(refined.ok());
  EXPECT_GE(refined.value().NumGroups(), original->NumGroups());
  EXPECT_EQ(MemberKeys(refined.value()), MemberKeys(*original));
}

TEST(ThresholdRefinerTest, SplitGroupsAreSubsetsOfOriginals) {
  OnexBase base = BuildBase(0.3);
  ThresholdRefiner refiner(&base);
  const GtiEntry* original = base.EntryFor(8);
  auto refined = refiner.RefineLength(8, 0.1);
  ASSERT_TRUE(refined.ok());
  // Build member -> original group map.
  std::map<uint64_t, size_t> origin;
  for (size_t k = 0; k < original->groups.size(); ++k) {
    for (const auto& member : original->groups[k].members) {
      origin[KeyOf(member.ref)] = k;
    }
  }
  // Each refined group must draw all members from one original group
  // (splitting never mixes groups).
  for (const auto& group : refined.value().groups) {
    ASSERT_FALSE(group.members.empty());
    const size_t expected = origin.at(KeyOf(group.members[0].ref));
    for (const auto& member : group.members) {
      EXPECT_EQ(origin.at(KeyOf(member.ref)), expected);
    }
  }
}

/// A split re-clusters each group's members, in stored order, through
/// the build's lane-batched scan: bit for bit the scalar scan's groups,
/// frozen.
TEST(ThresholdRefinerTest, SplitAssignsLikeTheScalarScan) {
  const OnexBase base = BuildBase(1.0);
  ThresholdRefiner refiner(&base);
  for (double st_prime : {0.05, 0.3}) {
    for (size_t length : base.gti().Lengths()) {
      SCOPED_TRACE("st' " + std::to_string(st_prime) + " length " +
                   std::to_string(length));
      const GtiEntry& entry = *base.EntryFor(length);
      const double radius_sq = scalar_grouping::RadiusSq(length, st_prime);
      std::vector<scalar_grouping::Group> want;
      size_t most_split = 0;
      for (const LsiEntry& group : entry.groups) {
        std::vector<scalar_grouping::Group> local;
        for (const LsiMember& member : group.members) {
          scalar_grouping::Assign(local, radius_sq, member.ref,
                                  member.ref.View(base.dataset()));
        }
        most_split = std::max(most_split, local.size());
        for (auto& g : local) want.push_back(std::move(g));
      }
      if (st_prime < 0.1) EXPECT_GT(most_split, kEdBatchLanes);
      auto refined = refiner.RefineLength(length, st_prime);
      ASSERT_TRUE(refined.ok());
      scalar_grouping::ExpectSameEntry(
          refined.value(),
          BuildGtiEntry(scalar_grouping::ToAssigner(base.dataset(), length,
                                                    st_prime, want),
                        st_prime, base.options().window_ratio,
                        base.options().compute_sp_space));
    }
  }
}

TEST(ThresholdRefinerTest, MergePreservesMembersAndRemovesGroups) {
  OnexBase base = BuildBase(0.1);
  ThresholdRefiner refiner(&base);
  const GtiEntry* original = base.EntryFor(8);
  auto refined = refiner.RefineLength(8, 0.3);
  ASSERT_TRUE(refined.ok());
  EXPECT_LE(refined.value().NumGroups(), original->NumGroups());
  EXPECT_EQ(MemberKeys(refined.value()), MemberKeys(*original));
}

TEST(ThresholdRefinerTest, HugeThresholdMergesToOneGroup) {
  OnexBase base = BuildBase(0.1);
  ThresholdRefiner refiner(&base);
  // Normalized ED between representatives is <= 1 on [0,1] data, so a
  // merge budget > 1 collapses everything.
  auto refined = refiner.RefineLength(8, 2.0);
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(refined.value().NumGroups(), 1u);
}

TEST(ThresholdRefinerTest, MergedGroupsRespectDcCondition) {
  OnexBase base = BuildBase(0.1);
  ThresholdRefiner refiner(&base);
  const double st_prime = 0.25;
  auto refined = refiner.RefineLength(8, st_prime);
  ASSERT_TRUE(refined.ok());
  // After the cascade completes, no surviving pair may still satisfy the
  // merge condition Dc <= ST' - ST.
  const GtiEntry& entry = refined.value();
  const double budget = st_prime - base.options().st;
  for (size_t k = 0; k < entry.NumGroups(); ++k) {
    for (size_t l = k + 1; l < entry.NumGroups(); ++l) {
      const double dc =
          NormalizedEuclidean(RepresentativeOf(entry.groups[k], base.dataset()),
                              RepresentativeOf(entry.groups[l], base.dataset()));
      EXPECT_GT(dc, budget);
    }
  }
}

TEST(ThresholdRefinerTest, RefineAllCoversEveryLength) {
  OnexBase base = BuildBase(0.2);
  ThresholdRefiner refiner(&base);
  auto refined = refiner.RefineAll(0.4);
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(refined.value().Lengths(), base.gti().Lengths());
}

TEST(ThresholdRefinerTest, Validation) {
  OnexBase base = BuildBase(0.2);
  ThresholdRefiner refiner(&base);
  EXPECT_FALSE(refiner.RefineLength(8, -0.1).ok());
  EXPECT_FALSE(refiner.RefineLength(999, 0.3).ok());
  EXPECT_FALSE(refiner.RefineAll(0.0).ok());
}

TEST(ThresholdRefinerTest, RefinedBaseAnswersQueries) {
  // The ST' view must be a drop-in OnexBase: queries under the new
  // threshold run against the refined groups.
  OnexBase base = BuildBase(0.15);
  ThresholdRefiner refiner(&base);
  auto refined = refiner.RefinedBase(0.3);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  OnexBase view = std::move(refined).value();
  EXPECT_DOUBLE_EQ(view.options().st, 0.3);
  EXPECT_EQ(view.gti().Lengths(), base.gti().Lengths());
  EXPECT_LE(view.stats().num_representatives,
            base.stats().num_representatives);
  EXPECT_EQ(view.stats().num_subsequences,
            base.stats().num_subsequences);

  QueryProcessor processor(&view);
  const auto fragment = view.dataset()[1].Subsequence(2, 8);
  std::vector<double> query(fragment.begin(), fragment.end());
  auto match = processor.FindBestMatchOfLength(
      std::span<const double>(query.data(), query.size()), 8);
  ASSERT_TRUE(match.ok());
  EXPECT_LE(match.value().distance, 0.05);
}

TEST(ThresholdRefinerTest, RefinedBaseValidation) {
  OnexBase base = BuildBase(0.2);
  ThresholdRefiner refiner(&base);
  EXPECT_FALSE(refiner.RefinedBase(0.0).ok());
}

TEST(ThresholdRefinerTest, RefinedEntryIsSearchable) {
  // The refined GtiEntry must be structurally complete: sorted members,
  // envelopes, sum-sorted array, markers — i.e., a drop-in for query
  // processing.
  OnexBase base = BuildBase(0.2);
  ThresholdRefiner refiner(&base);
  auto refined = refiner.RefineLength(8, 0.35);
  ASSERT_TRUE(refined.ok());
  const GtiEntry& entry = refined.value();
  EXPECT_EQ(entry.length, 8u);
  EXPECT_EQ(entry.sum_sorted.size(), entry.NumGroups());
  EXPECT_GE(entry.st_half, 0.35);
  EXPECT_GE(entry.st_final, entry.st_half);
  for (const auto& group : entry.groups) {
    EXPECT_EQ(group.envelope.size(), 8u);
    for (size_t i = 1; i < group.members.size(); ++i) {
      EXPECT_LE(group.members[i - 1].ed_to_rep, group.members[i].ed_to_rep);
    }
  }
}

}  // namespace
}  // namespace onex
