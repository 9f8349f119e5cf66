// Unit tests for the util substrate: Status/Result, Rng, RandomizeInPlace,
// stats accumulators, UnionFind, Crc32, Flags, TableWriter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "util/crc32.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/union_find.h"

namespace onex {
namespace {

// ---------------------------------------------------------------- Status.

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("cannot open foo");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIOError);
  EXPECT_EQ(s.ToString(), "IOError: cannot open foo");
}

TEST(StatusTest, AllNamedConstructorsProduceDistinctCodes) {
  std::set<Status::Code> codes = {
      Status::InvalidArgument("x").code(), Status::NotFound("x").code(),
      Status::IOError("x").code(),         Status::Corruption("x").code(),
      Status::OutOfRange("x").code(),      Status::NotSupported("x").code()};
  EXPECT_EQ(codes.size(), 6u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(r.ok());
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ------------------------------------------------------------------- Rng.

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformCoversAllResidues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Gaussian(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RandomizeInPlaceTest, ProducesPermutation) {
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  Rng rng(3);
  RandomizeInPlace(&v, &rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RandomizeInPlaceTest, ActuallyShuffles) {
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  Rng rng(3);
  RandomizeInPlace(&v, &rng);
  int fixed_points = 0;
  for (int i = 0; i < 100; ++i) {
    if (v[i] == i) ++fixed_points;
  }
  EXPECT_LT(fixed_points, 20);
}

TEST(RandomizeInPlaceTest, HandlesDegenerateSizes) {
  Rng rng(1);
  std::vector<int> empty;
  RandomizeInPlace(&empty, &rng);  // Must not crash.
  std::vector<int> one = {42};
  RandomizeInPlace(&one, &rng);
  EXPECT_EQ(one[0], 42);
}

// ----------------------------------------------------------------- Stats.

TEST(RunningStatsTest, MatchesNaiveComputation) {
  const std::vector<double> xs = {1.0, 2.5, -3.0, 7.25, 0.0, 4.5};
  RunningStats stats;
  for (double x : xs) stats.Add(x);
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / xs.size();
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), ss / (xs.size() - 1), 1e-12);
  EXPECT_EQ(stats.min(), -3.0);
  EXPECT_EQ(stats.max(), 7.25);
  EXPECT_NEAR(stats.sum(), sum, 1e-12);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  Rng rng(9);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextGaussian();
    all.Add(x);
    (i < 400 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(SampleSetTest, PercentilesOnKnownData) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.Add(static_cast<double>(i));
  EXPECT_NEAR(set.Median(), 50.5, 1e-9);
  EXPECT_NEAR(set.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(set.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(set.mean(), 50.5, 1e-9);
  EXPECT_EQ(set.Min(), 1.0);
  EXPECT_EQ(set.Max(), 100.0);
}

TEST(SampleSetTest, SingleSample) {
  SampleSet set;
  set.Add(3.0);
  EXPECT_EQ(set.Median(), 3.0);
  EXPECT_EQ(set.Percentile(10), 3.0);
}

// ------------------------------------------------------------- UnionFind.

TEST(UnionFindTest, StartsFullyDisconnected) {
  UnionFind uf(5);
  EXPECT_EQ(uf.components(), 5u);
  EXPECT_FALSE(uf.Connected(0, 1));
}

TEST(UnionFindTest, UnionReducesComponents) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_EQ(uf.components(), 3u);
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(1, 2));
  EXPECT_TRUE(uf.Union(1, 3));
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_EQ(uf.components(), 2u);
}

TEST(UnionFindTest, RedundantUnionReturnsFalse) {
  UnionFind uf(3);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_EQ(uf.components(), 2u);
}

TEST(UnionFindTest, ChainMergesToOne) {
  UnionFind uf(100);
  for (size_t i = 0; i + 1 < 100; ++i) uf.Union(i, i + 1);
  EXPECT_EQ(uf.components(), 1u);
  EXPECT_TRUE(uf.Connected(0, 99));
}

// ----------------------------------------------------------------- Crc32.

/// The bytewise CRC-32 the slice-by-8 kernel must reproduce: reflected
/// polynomial 0xEDB88320, one bit at a time.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.Uniform(256));
  return bytes;
}

TEST(Crc32Test, StandardCheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, EqualsBytewiseReferenceAtEveryLengthAndOffset) {
  // Offsets 0..7 put the eight-byte steps on every alignment.
  const auto bytes = RandomBytes(300 + 8, 17);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      const unsigned char* p = bytes.data() + offset;
      ASSERT_EQ(Crc32(p, n), ReferenceCrc32(p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32Test, ChainedOverRandomSplitsEqualsOneShot) {
  const auto bytes = RandomBytes(4096, 29);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  ASSERT_EQ(whole, ReferenceCrc32(bytes.data(), bytes.size()));
  Rng rng(31);
  for (int trial = 0; trial < 64; ++trial) {
    uint32_t crc = 0;
    size_t at = 0;
    while (at < bytes.size()) {
      const size_t piece =
          std::min<size_t>(rng.Uniform(40), bytes.size() - at);
      crc = Crc32Update(crc, bytes.data() + at, piece);
      at += piece;
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

// ----------------------------------------------------------------- Timer.

TEST(TimerTest, ElapsedIsNonNegativeAndMonotone) {
  Timer timer;
  const double t1 = timer.ElapsedSeconds();
  const double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_GE(timer.ElapsedNanos(), 0);
}

TEST(TimerTest, ResetRestarts) {
  Timer timer;
  volatile double sink = 0;
  // A plain assignment keeps the loop from being optimised away; the
  // compound form on a volatile is deprecated in C++20.
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

// ----------------------------------------------------------------- Flags.

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",      "--alpha=3",  "--beta", "hello",
                        "--gamma",   "--delta=2.5", "--flag"};
  Flags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_EQ(flags.GetString("beta", ""), "hello");
  EXPECT_TRUE(flags.Has("gamma"));
  EXPECT_DOUBLE_EQ(flags.GetDouble("delta", 0.0), 2.5);
  EXPECT_TRUE(flags.GetBool("flag", false));
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, BoolValues) {
  const char* argv[] = {"prog", "--yes=true", "--no=false", "--one=1"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_TRUE(flags.GetBool("yes", false));
  EXPECT_FALSE(flags.GetBool("no", true));
  EXPECT_TRUE(flags.GetBool("one", false));
}

// ----------------------------------------------------------------- Table.

TEST(TableWriterTest, RendersAlignedColumns) {
  TableWriter table("Demo");
  table.SetHeader({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"bb", "22222"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
}

TEST(TableWriterTest, NumberFormatting) {
  EXPECT_EQ(TableWriter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::Num(2.0, 0), "2");
  EXPECT_EQ(TableWriter::Sci(4.83e9, 2), "4.83e+09");
}

TEST(TableWriterTest, CsvRendering) {
  TableWriter table("ignored");
  table.SetHeader({"a", "b"});
  table.AddRow({"1", "2"});
  table.AddRow({"with,comma", "with\"quote"});
  const std::string csv = table.RenderCsv();
  EXPECT_EQ(csv,
            "a,b\n"
            "1,2\n"
            "\"with,comma\",\"with\"\"quote\"\n");
}

TEST(SeriesWriterTest, CsvRendering) {
  SeriesWriter series("ignored");
  series.SetXLabel("st");
  series.AddSeries("y");
  series.AddPoint(0.5, {1.25});
  const std::string csv = series.RenderCsv();
  EXPECT_NE(csv.find("st,y"), std::string::npos);
  EXPECT_NE(csv.find("0.5,1.25"), std::string::npos);
}

TEST(SeriesWriterTest, RendersSeries) {
  SeriesWriter series("Fig");
  series.SetXLabel("st");
  series.AddSeries("a");
  series.AddSeries("b");
  series.AddPoint(0.1, {1.0, 2.0});
  series.AddPoint(0.2, {3.0, 4.0});
  const std::string out = series.Render();
  EXPECT_NE(out.find("st"), std::string::npos);
  EXPECT_NE(out.find("0.2"), std::string::npos);
}

}  // namespace
}  // namespace onex
