// Tests for incremental base maintenance (OnexBase::AppendSeries): the
// Algorithm-1 invariants must keep holding after appends, appended data
// must become queryable, and stats must track the growth.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "core/onex_base.h"
#include "core/query_processor.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "scalar_grouping.h"

namespace onex {
namespace {

OnexBase BuildTestBase(size_t n_series = 8) {
  GenOptions gen;
  gen.num_series = n_series;
  gen.length = 24;
  gen.seed = 42;
  Dataset d = MakeItalyPower(gen);
  MinMaxNormalize(&d);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 24, 8};
  auto result = OnexBase::Build(std::move(d), options);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TimeSeries NewSeries(uint64_t seed) {
  GenOptions gen;
  gen.num_series = 1;
  gen.length = 24;
  gen.seed = seed;
  Dataset d = MakeItalyPower(gen);
  MinMaxNormalize(&d);
  return d[0];
}

uint64_t KeyOf(const SubsequenceRef& ref) {
  return (static_cast<uint64_t>(ref.series) << 40) |
         (static_cast<uint64_t>(ref.start) << 16) | ref.length;
}

TEST(MaintenanceTest, AppendGrowsDatasetAndStats) {
  OnexBase base = BuildTestBase();
  const uint64_t before_subs = base.stats().num_subsequences;
  const size_t before_series = base.dataset().size();
  ASSERT_TRUE(base.AppendSeries(NewSeries(99)).ok());
  EXPECT_EQ(base.dataset().size(), before_series + 1);
  // The new series contributes (24-8+1) + (24-16+1) + (24-24+1)
  // subsequences at lengths 8, 16, 24.
  EXPECT_EQ(base.stats().num_subsequences, before_subs + 17 + 9 + 1);
}

TEST(MaintenanceTest, CoverageInvariantHoldsAfterAppend) {
  OnexBase base = BuildTestBase();
  ASSERT_TRUE(base.AppendSeries(NewSeries(7)).ok());
  ASSERT_TRUE(base.AppendSeries(NewSeries(8)).ok());
  for (size_t length : base.gti().Lengths()) {
    const GtiEntry* entry = base.EntryFor(length);
    std::set<uint64_t> seen;
    size_t total = 0;
    for (const auto& group : entry->groups) {
      for (const auto& member : group.members) {
        EXPECT_TRUE(seen.insert(KeyOf(member.ref)).second);
        ++total;
      }
    }
    EXPECT_EQ(total, base.dataset().size() * (24 - length + 1));
  }
}

TEST(MaintenanceTest, AppendedDataIsQueryable) {
  OnexBase base = BuildTestBase();
  TimeSeries fresh = NewSeries(1234);
  ASSERT_TRUE(base.AppendSeries(fresh).ok());
  const uint32_t new_id = static_cast<uint32_t>(base.dataset().size() - 1);

  // Query with a fragment of the appended series: the exact fragment is
  // in the base, but ONEX descends into the group whose representative
  // is DTW-nearest, which may be a sibling group — so assert a
  // near-zero distance rather than exactly zero (the same inherent
  // approximation the paper's accuracy tables quantify).
  const auto view = base.dataset()[new_id].Subsequence(5, 16);
  std::vector<double> query(view.begin(), view.end());
  QueryProcessor processor(&base);
  auto result = processor.FindBestMatchOfLength(
      std::span<const double>(query.data(), query.size()), 16);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().distance, 0.02);
}

TEST(MaintenanceTest, IndexStructuresStayConsistent) {
  OnexBase base = BuildTestBase();
  ASSERT_TRUE(base.AppendSeries(NewSeries(55)).ok());
  for (size_t length : base.gti().Lengths()) {
    const GtiEntry* entry = base.EntryFor(length);
    const size_t g = entry->NumGroups();
    ASSERT_EQ(entry->sum_sorted.size(), g);
    EXPECT_GE(entry->st_half, base.options().st);
    EXPECT_GE(entry->st_final, entry->st_half);
    for (const auto& group : entry->groups) {
      EXPECT_EQ(group.envelope.size(), length);
      for (size_t i = 1; i < group.members.size(); ++i) {
        EXPECT_LE(group.members[i - 1].ed_to_rep,
                  group.members[i].ed_to_rep);
      }
    }
  }
}

TEST(MaintenanceTest, IncrementalMatchesScratchBuildStatistically) {
  // Appending one-by-one is order-dependent (the running averages see
  // different orders), so exact equality with a scratch build is not
  // expected — but coverage and the group-count scale must agree.
  OnexBase incremental = BuildTestBase(8);
  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(incremental.AppendSeries(NewSeries(100 + s)).ok());
  }

  GenOptions gen;
  gen.num_series = 8;
  gen.length = 24;
  gen.seed = 42;
  Dataset all = MakeItalyPower(gen);
  MinMaxNormalize(&all);
  for (uint64_t s = 0; s < 4; ++s) all.Add(NewSeries(100 + s));
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 24, 8};
  auto scratch = OnexBase::Build(std::move(all), options);
  ASSERT_TRUE(scratch.ok());

  EXPECT_EQ(incremental.stats().num_subsequences,
            scratch.value().stats().num_subsequences);
  const double inc_groups =
      static_cast<double>(incremental.stats().num_representatives);
  const double scr_groups =
      static_cast<double>(scratch.value().stats().num_representatives);
  EXPECT_LT(std::abs(inc_groups - scr_groups) / scr_groups, 0.5);
}

/// What an append of `fresh` to `base` must produce at each length: the
/// frozen groups, reconstituted, take every new subsequence through the
/// scalar assignment scan, and are frozen again.
std::map<size_t, GtiEntry> ScalarAppend(const OnexBase& base,
                                        const std::vector<TimeSeries>& fresh) {
  Dataset after = base.dataset();
  const auto first_id = static_cast<uint32_t>(after.size());
  for (const TimeSeries& series : fresh) after.Add(series);
  const OnexOptions& options = base.options();
  std::map<size_t, GtiEntry> entries;
  for (size_t length : base.gti().Lengths()) {
    std::vector<scalar_grouping::Group> groups =
        scalar_grouping::Reconstitute(after, *base.EntryFor(length));
    const double radius_sq = scalar_grouping::RadiusSq(length, options.st);
    for (uint32_t id = first_id; id < after.size(); ++id) {
      for (uint32_t j = 0; j + length <= after[id].length(); ++j) {
        const SubsequenceRef ref{id, j, static_cast<uint32_t>(length)};
        scalar_grouping::Assign(groups, radius_sq, ref, ref.View(after));
      }
    }
    entries[length] = BuildGtiEntry(
        scalar_grouping::ToAssigner(after, length, options.st, groups),
        options.st, options.window_ratio, options.compute_sp_space);
  }
  return entries;
}

/// Appends assign through the build's lane-batched scan; a batch and a
/// single append both give, bit for bit, the scalar scan's entries.
TEST(MaintenanceTest, AppendsAssignLikeTheScalarScan) {
  const OnexBase base = BuildTestBase(10);
  const std::vector<TimeSeries> fresh = {NewSeries(31), NewSeries(32),
                                         NewSeries(33)};
  OnexBase batched = base;
  ASSERT_TRUE(batched.AppendBatch(fresh).ok());
  OnexBase single = base;
  ASSERT_TRUE(single.AppendSeries(fresh[0]).ok());
  const auto want_batched = ScalarAppend(base, fresh);
  const auto want_single = ScalarAppend(base, {fresh[0]});
  // Enough groups at some length for the scan to span several blocks.
  size_t most_groups = 0;
  for (const auto& [length, entry] : base.gti().entries()) {
    most_groups = std::max(most_groups, entry.NumGroups());
  }
  EXPECT_GT(most_groups, 2 * kEdBatchLanes);
  for (size_t length : base.gti().Lengths()) {
    SCOPED_TRACE("length " + std::to_string(length));
    scalar_grouping::ExpectSameEntry(*batched.EntryFor(length),
                                     want_batched.at(length));
    scalar_grouping::ExpectSameEntry(*single.EntryFor(length),
                                     want_single.at(length));
  }
}

TEST(MaintenanceTest, EmptySeriesRejected) {
  OnexBase base = BuildTestBase();
  EXPECT_EQ(base.AppendSeries(TimeSeries()).code(),
            Status::Code::kInvalidArgument);
}

TEST(MaintenanceTest, NonFiniteOrHugeValuesRejected) {
  // Such values would make the length's distances and markers
  // non-finite; the batch must be rejected whole, the base untouched.
  OnexBase base = BuildTestBase();
  const uint64_t series = base.dataset().size();
  const uint64_t subsequences = base.stats().num_subsequences;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -2 * kMaxAbsSeriesValue}) {
    TimeSeries poisoned = NewSeries(7);
    poisoned[5] = bad;
    EXPECT_EQ(base.AppendSeries(poisoned).code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(base.AppendBatch({NewSeries(8), poisoned}).code(),
              Status::Code::kInvalidArgument);
  }
  EXPECT_EQ(base.dataset().size(), series);
  EXPECT_EQ(base.stats().num_subsequences, subsequences);

  // The limit itself is accepted.
  TimeSeries edge = NewSeries(9);
  edge[0] = kMaxAbsSeriesValue;
  EXPECT_TRUE(base.AppendSeries(edge).ok());
}

TEST(MaintenanceTest, BuildRejectsNonFiniteValues) {
  Dataset d("poisoned");
  d.Add(NewSeries(10));
  TimeSeries poisoned = NewSeries(11);
  poisoned[2] = std::numeric_limits<double>::quiet_NaN();
  d.Add(poisoned);
  OnexOptions options;
  options.lengths = {8, 24, 8};
  auto built = OnexBase::Build(std::move(d), options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), Status::Code::kInvalidArgument);
}

TEST(MaintenanceTest, ShortSeriesOnlyFeedsShortLengths) {
  OnexBase base = BuildTestBase();
  const uint64_t before = base.stats().num_subsequences;
  // A 10-point series only produces length-8 subsequences (spec 8/16/24).
  std::vector<double> values(10, 0.5);
  ASSERT_TRUE(base.AppendSeries(TimeSeries(values, 1)).ok());
  EXPECT_EQ(base.stats().num_subsequences, before + (10 - 8 + 1));
}

}  // namespace
}  // namespace onex
