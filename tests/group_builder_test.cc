// Tests for Algorithm 1 (similarity-group construction): coverage and
// exclusivity (every subsequence in exactly one group, Def. 8),
// radius and compactness behaviour, determinism, the group-count
// trend as ST varies (the mechanism behind the paper's Figs. 5-6), and
// bit-for-bit agreement of the lane-batched scan with the scalar one.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <tuple>

#include "core/group_builder.h"
#include "core/onex_base.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "distance/euclidean.h"
#include "scalar_grouping.h"
#include "util/rng.h"

namespace onex {
namespace {

Dataset TestDataset(size_t n_series = 10, size_t length = 24,
                    uint64_t seed = 42) {
  GenOptions options;
  options.num_series = n_series;
  options.length = length;
  options.seed = seed;
  Dataset d = MakeItalyPower(options);
  MinMaxNormalize(&d);
  return d;
}

uint64_t KeyOf(const SubsequenceRef& ref) {
  return (static_cast<uint64_t>(ref.series) << 40) |
         (static_cast<uint64_t>(ref.start) << 16) | ref.length;
}

/// BuildGroupsForLength's groups, members in assignment order.
std::vector<scalar_grouping::Group> BuildGroups(const Dataset& d,
                                                size_t length, double st,
                                                Rng* rng) {
  return scalar_grouping::GroupsOf(BuildGroupsForLength(d, length, st, rng));
}

// With an infinite radius every distance is "within" it, including the
// +inf that stands for "no group yet": the first subsequence must found
// a group instead of joining one that does not exist.
TEST(GroupBuilderTest, FirstSubsequenceFoundsAGroupAtAnyRadius) {
  Dataset d = TestDataset();
  Rng rng(1);
  const auto groups = BuildGroups(
      d, 8, std::numeric_limits<double>::infinity(), &rng);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), d.size() * (24 - 8 + 1));
}

TEST(GroupBuilderTest, CoversEverySubsequenceExactlyOnce) {
  Dataset d = TestDataset();
  Rng rng(1);
  const size_t length = 8;
  const auto groups = BuildGroups(d, length, 0.2, &rng);
  std::set<uint64_t> seen;
  size_t total = 0;
  for (const auto& group : groups) {
    EXPECT_EQ(group.rep.size(), length);
    EXPECT_GT(group.size(), 0u);
    for (const auto& ref : group.members) {
      EXPECT_EQ(ref.length, length);
      EXPECT_TRUE(seen.insert(KeyOf(ref)).second)
          << "subsequence appears in two groups";
      ++total;
    }
  }
  // Exactly N * (n - L + 1) subsequences of this length.
  EXPECT_EQ(total, d.size() * (d.MaxLength() - length + 1));
}

TEST(GroupBuilderTest, RepresentativeIsPointwiseAverage) {
  Dataset d = TestDataset();
  Rng rng(2);
  const size_t length = 6;
  const auto groups = BuildGroups(d, length, 0.3, &rng);
  for (const auto& group : groups) {
    std::vector<double> mean(length, 0.0);
    for (const auto& ref : group.members) {
      const auto values = ref.View(d);
      for (size_t i = 0; i < length; ++i) mean[i] += values[i];
    }
    for (size_t i = 0; i < length; ++i) {
      mean[i] /= static_cast<double>(group.size());
      EXPECT_NEAR(group.rep[i], mean[i], 1e-9);
    }
  }
}

TEST(GroupBuilderTest, MembersCloseToFinalRepresentative) {
  // Members join within ST/2 of the representative *at join time*; the
  // running mean then drifts. On smooth data the drift is small: assert
  // the documented relaxation that members sit within ST of the final
  // representative (normalized ED), and that the vast majority still sit
  // within ST/2.
  Dataset d = TestDataset(15, 24, 7);
  Rng rng(3);
  const size_t length = 8;
  const double st = 0.2;
  const auto groups = BuildGroups(d, length, st, &rng);
  size_t total = 0, within_half = 0;
  for (const auto& group : groups) {
    const std::span<const double> rep(group.rep);
    for (const auto& ref : group.members) {
      const double ed = NormalizedEuclidean(ref.View(d), rep);
      EXPECT_LE(ed, st);
      if (ed <= st / 2.0 + 1e-9) ++within_half;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(within_half) / total, 0.9);
}

TEST(GroupBuilderTest, PairwiseMembersWithinLemma1Bound) {
  // Lemma 1: two members of the same group are within ST of each other
  // (normalized ED), given both are within ST/2 of the representative.
  // With the running mean, allow the same 2x relaxation as above.
  Dataset d = TestDataset(10, 24, 11);
  Rng rng(4);
  const double st = 0.25;
  const auto groups = BuildGroups(d, 10, st, &rng);
  for (const auto& group : groups) {
    const auto& members = group.members;
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        const double ed =
            NormalizedEuclidean(members[a].View(d), members[b].View(d));
        EXPECT_LE(ed, 2.0 * st);
      }
    }
  }
}

TEST(GroupBuilderTest, DeterministicForSeed) {
  Dataset d = TestDataset();
  Rng rng1(5), rng2(5);
  const auto a = BuildGroups(d, 8, 0.2, &rng1);
  const auto b = BuildGroups(d, 8, 0.2, &rng2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i].members[j], b[i].members[j]);
    }
  }
}

class GroupCountSweep : public ::testing::TestWithParam<double> {};

TEST_P(GroupCountSweep, TinyThresholdManyGroupsLargeThresholdFew) {
  // The paper's Fig. 6 trend: representative count decreases as ST grows.
  Dataset d = TestDataset(8, 24, 13);
  const double st = GetParam();
  Rng rng(6);
  const auto groups = BuildGroups(d, 8, st, &rng);
  Rng rng2(6);
  const auto groups_bigger = BuildGroups(d, 8, st * 2.0, &rng2);
  EXPECT_GE(groups.size(), groups_bigger.size());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, GroupCountSweep,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4));

TEST(GroupBuilderTest, HugeThresholdYieldsOneGroup) {
  Dataset d = TestDataset();
  Rng rng(7);
  // Data lives in [0,1]: normalized ED can never exceed 1, so ST = 4
  // (radius 2) swallows everything into the first group.
  const auto groups = BuildGroups(d, 8, 4.0, &rng);
  EXPECT_EQ(groups.size(), 1u);
}

TEST(GroupBuilderTest, LengthLongerThanSeriesYieldsNothing) {
  Dataset d = TestDataset(4, 24, 15);
  Rng rng(8);
  const auto groups = BuildGroups(d, 100, 0.2, &rng);
  EXPECT_TRUE(groups.empty());
}

TEST(BuildLengthsTest, RespectsLengthSpec) {
  Dataset d = TestDataset(5, 24, 17);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {6, 18, 6};  // Lengths 6, 12, 18.
  auto base = OnexBase::Build(d, options);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base.value().gti().Lengths(), (std::vector<size_t>{6, 12, 18}));
  // Each length covers all its subsequences.
  for (const auto& [len, entry] : base.value().gti().entries()) {
    size_t total = 0;
    for (const auto& g : entry.groups) total += g.size();
    EXPECT_EQ(total, d.size() * (24 - len + 1)) << "length " << len;
  }
}

TEST(BuildLengthsTest, RaggedSeriesContributeWhereLongEnough) {
  Dataset d("ragged");
  d.Add(TimeSeries(std::vector<double>(20, 0.5), 1));
  d.Add(TimeSeries(std::vector<double>(10, 0.5), 1));
  OnexOptions options;
  options.lengths = {8, 16, 8};  // Lengths 8, 16.
  auto base = OnexBase::Build(d, options);
  ASSERT_TRUE(base.ok());
  ASSERT_NE(base.value().EntryFor(8), nullptr);
  ASSERT_NE(base.value().EntryFor(16), nullptr);
  size_t total8 = 0;
  for (const auto& g : base.value().EntryFor(8)->groups) total8 += g.size();
  EXPECT_EQ(total8, (20 - 8 + 1) + (10 - 8 + 1));
  size_t total16 = 0;
  for (const auto& g : base.value().EntryFor(16)->groups) total16 += g.size();
  EXPECT_EQ(total16, static_cast<size_t>(20 - 16 + 1));  // Only series 0.
}

// ------------------------------------ Equivalence with the scalar scan.

/// Whole builds through the lane-batched scan equal the scalar scan's:
/// the same groups, member order and representative bits. Tiny ST
/// founds a group per subsequence (hundreds of lanes, partial last
/// blocks), huge ST joins everything to the first group, and 0.2 is
/// the mix in between.
TEST(GroupBuilderTest, LaneScanBuildsTheScalarScansGroups) {
  using Generator = Dataset (*)(const GenOptions&);
  const Generator generators[] = {MakeItalyPower, MakeRandomWalk,
                                  MakeTwoPatterns};
  for (Generator make : generators) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      GenOptions gen;
      gen.num_series = 10;
      gen.length = 40;
      gen.seed = seed;
      Dataset d = make(gen);
      MinMaxNormalize(&d);
      for (double st : {1e-3, 0.2, OnexOptions::kMaxSt}) {
        for (size_t length : {8u, 24u}) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " st " +
                       std::to_string(st) + " length " +
                       std::to_string(length));
          Rng rng(seed), reference_rng(seed);
          scalar_grouping::ExpectSameGroups(
              BuildGroupsForLength(d, length, st, &rng),
              scalar_grouping::BuildGroupsForLength(d, length, st,
                                                    &reference_rng));
        }
      }
    }
  }
}

/// Each kernel, on an empty assigner and on one handed existing groups
/// (as an append hands it the frozen ones), assigns like the scalar
/// scan.
TEST(GroupBuilderTest, EveryKernelAssignsLikeTheScalarScan) {
  Dataset d = TestDataset(12, 32, 19);
  const size_t length = 12;
  std::vector<SubsequenceRef> refs;
  for (uint32_t p = 0; p < d.size(); ++p) {
    for (uint32_t j = 0; j + length <= d[p].length(); ++j) {
      refs.push_back({p, j, static_cast<uint32_t>(length)});
    }
  }
  Rng rng(3);
  RandomizeInPlace(&refs, &rng);
  const size_t half = refs.size() / 2;
  for (LaneKernel kernel : {LaneKernel::kPortable, LaneKernel::kAvx2}) {
    if (!LaneKernelSupported(kernel)) continue;
    for (double st : {0.05, 0.2}) {
      SCOPED_TRACE("kernel " + std::to_string(static_cast<int>(kernel)) +
                   " st " + std::to_string(st));
      const double radius_sq = scalar_grouping::RadiusSq(length, st);
      std::vector<scalar_grouping::Group> reference;
      GroupAssigner fresh(d, length, st,
                          {refs.begin(), refs.begin() + half}, kernel);
      for (size_t i = 0; i < half; ++i) {
        scalar_grouping::Assign(reference, radius_sq, refs[i],
                                refs[i].View(d));
        fresh.AssignNext();
      }
      scalar_grouping::ExpectSameGroups(fresh, reference);
      // The reference's groups, reconstituted, then the second half.
      std::vector<SubsequenceRef> resumed_refs;
      for (const auto& group : reference) {
        resumed_refs.insert(resumed_refs.end(), group.members.begin(),
                            group.members.end());
      }
      resumed_refs.insert(resumed_refs.end(), refs.begin() + half,
                          refs.end());
      GroupAssigner resumed(d, length, st, std::move(resumed_refs), kernel);
      for (const auto& group : reference) resumed.FoundGroup(group.size());
      for (size_t i = half; i < refs.size(); ++i) {
        scalar_grouping::Assign(reference, radius_sq, refs[i],
                                refs[i].View(d));
        resumed.AssignNext();
      }
      EXPECT_GT(reference.size(), 2 * kEdBatchLanes);
      scalar_grouping::ExpectSameGroups(resumed, reference);
    }
  }
}

}  // namespace
}  // namespace onex
