// Unit tests for the dataset substrate: TimeSeries, Dataset, LengthSpec,
// normalization kernels, and dataset statistics.

#include <gtest/gtest.h>

#include <cmath>

#include "dataset/dataset.h"
#include "dataset/length_spec.h"
#include "dataset/normalize.h"
#include "dataset/subsequence.h"
#include "dataset/time_series.h"

namespace onex {
namespace {

Dataset SmallDataset() {
  Dataset d("small");
  d.Add(TimeSeries({0.0, 1.0, 2.0, 3.0}, 1));
  d.Add(TimeSeries({4.0, 5.0, 6.0, 7.0}, 2));
  d.Add(TimeSeries({-1.0, 0.5, 1.5, 9.0}, 1));
  return d;
}

// ------------------------------------------------------------ TimeSeries.

TEST(TimeSeriesTest, BasicAccessors) {
  TimeSeries ts({1.0, 2.0, 3.0}, 5);
  EXPECT_EQ(ts.length(), 3u);
  EXPECT_EQ(ts.label(), 5);
  EXPECT_DOUBLE_EQ(ts[1], 2.0);
  ts[1] = 9.0;
  EXPECT_DOUBLE_EQ(ts[1], 9.0);
}

TEST(TimeSeriesTest, SubsequenceView) {
  TimeSeries ts({1.0, 2.0, 3.0, 4.0, 5.0});
  auto view = ts.Subsequence(1, 3);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_DOUBLE_EQ(view[0], 2.0);
  EXPECT_DOUBLE_EQ(view[2], 4.0);
  // Views alias the underlying storage (zero copy).
  ts[2] = 42.0;
  EXPECT_DOUBLE_EQ(view[1], 42.0);
}

TEST(TimeSeriesTest, EmptySeries) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.length(), 0u);
}

// --------------------------------------------------------------- Dataset.

TEST(DatasetTest, SizeAndAccess) {
  Dataset d = SmallDataset();
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.name(), "small");
  EXPECT_DOUBLE_EQ(d[1][0], 4.0);
}

TEST(DatasetTest, LengthQueries) {
  Dataset d = SmallDataset();
  EXPECT_EQ(d.MinLength(), 4u);
  EXPECT_EQ(d.MaxLength(), 4u);
  EXPECT_TRUE(d.IsFixedLength());
  d.Add(TimeSeries({1.0, 2.0}));
  EXPECT_EQ(d.MinLength(), 2u);
  EXPECT_FALSE(d.IsFixedLength());
  EXPECT_EQ(d.TotalPoints(), 14u);
}

TEST(DatasetTest, ValueRange) {
  Dataset d = SmallDataset();
  const auto [lo, hi] = d.ValueRange();
  EXPECT_DOUBLE_EQ(lo, -1.0);
  EXPECT_DOUBLE_EQ(hi, 9.0);
}

TEST(DatasetTest, EmptyDatasetDefaults) {
  Dataset d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.MinLength(), 0u);
  const auto [lo, hi] = d.ValueRange();
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 1.0);
}

TEST(DatasetTest, NumSubsequencesMatchesPaperFormula) {
  // The paper (Sec. 1.2): N series of length n have N*n*(n-1)/2
  // subsequences of lengths >= 2.
  Dataset d("formula");
  const size_t N = 7, n = 12;
  for (size_t i = 0; i < N; ++i) {
    d.Add(TimeSeries(std::vector<double>(n, 0.0)));
  }
  EXPECT_EQ(d.NumSubsequences(2, n), N * n * (n - 1) / 2);
}

TEST(DatasetTest, NumSubsequencesRespectsRange) {
  Dataset d("range");
  d.Add(TimeSeries(std::vector<double>(10, 0.0)));
  // Length 4 only: 10 - 4 + 1 = 7 subsequences.
  EXPECT_EQ(d.NumSubsequences(4, 4), 7u);
  // Lengths 9..20 clamp at 10: (10-9+1) + (10-10+1) = 3.
  EXPECT_EQ(d.NumSubsequences(9, 20), 3u);
}

// ---------------------------------------------------------- SubsequenceRef.

TEST(SubsequenceRefTest, ResolvesView) {
  Dataset d = SmallDataset();
  SubsequenceRef ref{2, 1, 3};
  auto view = ref.View(d);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_DOUBLE_EQ(view[0], 0.5);
  EXPECT_DOUBLE_EQ(view[2], 9.0);
}

TEST(SubsequenceRefTest, Equality) {
  SubsequenceRef a{1, 2, 3}, b{1, 2, 3}, c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

// -------------------------------------------------------------- LengthSpec.

TEST(LengthSpecTest, FullDecomposition) {
  LengthSpec spec;  // min 2, max = series length, step 1.
  const auto lengths = spec.LengthsFor(5);
  ASSERT_EQ(lengths.size(), 4u);
  EXPECT_EQ(lengths.front(), 2u);
  EXPECT_EQ(lengths.back(), 5u);
}

TEST(LengthSpecTest, StridedAndClamped) {
  LengthSpec spec{4, 20, 3};
  const auto lengths = spec.LengthsFor(12);  // 4, 7, 10.
  ASSERT_EQ(lengths.size(), 3u);
  EXPECT_EQ(lengths[1], 7u);
  EXPECT_TRUE(spec.Contains(10, 12));
  EXPECT_FALSE(spec.Contains(11, 12));
  EXPECT_FALSE(spec.Contains(4, 3));  // Longer than the series.
}

TEST(LengthSpecTest, MinimumLengthIsTwo) {
  LengthSpec spec{0, 0, 1};
  const auto lengths = spec.LengthsFor(4);
  EXPECT_EQ(lengths.front(), 2u);
}

// -------------------------------------------------------------- Normalize.

TEST(NormalizeTest, MinMaxMapsDatasetToUnitInterval) {
  Dataset d = SmallDataset();
  const auto [lo, hi] = MinMaxNormalize(&d);
  EXPECT_DOUBLE_EQ(lo, -1.0);
  EXPECT_DOUBLE_EQ(hi, 9.0);
  double seen_lo = 1e9, seen_hi = -1e9;
  for (size_t i = 0; i < d.size(); ++i) {
    for (double x : d[i].values()) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0);
      seen_lo = std::min(seen_lo, x);
      seen_hi = std::max(seen_hi, x);
    }
  }
  EXPECT_DOUBLE_EQ(seen_lo, 0.0);
  EXPECT_DOUBLE_EQ(seen_hi, 1.0);
}

TEST(NormalizeTest, MinMaxPreservesOrderingWithinSeries) {
  Dataset d("mono");
  d.Add(TimeSeries({1.0, 5.0, 3.0}));
  MinMaxNormalize(&d);
  EXPECT_LT(d[0][0], d[0][2]);
  EXPECT_LT(d[0][2], d[0][1]);
}

TEST(NormalizeTest, ConstantDatasetMapsToZero) {
  Dataset d("const");
  d.Add(TimeSeries({2.0, 2.0, 2.0}));
  MinMaxNormalize(&d);
  for (double x : d[0].values()) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(NormalizeTest, PerSeriesVariant) {
  Dataset d("per");
  d.Add(TimeSeries({0.0, 10.0}));
  d.Add(TimeSeries({100.0, 200.0}));
  MinMaxNormalizePerSeries(&d);
  EXPECT_DOUBLE_EQ(d[0][1], 1.0);
  EXPECT_DOUBLE_EQ(d[1][0], 0.0);
  EXPECT_DOUBLE_EQ(d[1][1], 1.0);
}

TEST(NormalizeTest, ZNormalizedMeanZeroStdOne) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0, 10.0};
  const auto z = ZNormalized(std::span<const double>(v.data(), v.size()));
  const auto [mean, stddev] =
      MeanStddev(std::span<const double>(z.data(), z.size()));
  EXPECT_NEAR(mean, 0.0, 1e-12);
  EXPECT_NEAR(stddev, 1.0, 1e-12);
}

TEST(NormalizeTest, ZNormalizeConstantIsAllZero) {
  std::vector<double> v = {3.0, 3.0, 3.0};
  ZNormalize(&v);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(NormalizeTest, MeanStddevKnownValues) {
  std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const auto [mean, stddev] =
      MeanStddev(std::span<const double>(v.data(), v.size()));
  EXPECT_DOUBLE_EQ(mean, 5.0);
  EXPECT_DOUBLE_EQ(stddev, 2.0);
}

}  // namespace
}  // namespace onex
