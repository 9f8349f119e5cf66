// Tests for the Euclidean distance kernels (paper Defs. 2 and 5), and
// for the lane-batched SquaredEuclideanBatch, each of whose lanes must
// reproduce the scalar SquaredEuclideanEarlyAbandon bit for bit
// (compared with memcmp, never a tolerance).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "distance/euclidean.h"
#include "util/rng.h"

namespace onex {
namespace {

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->UniformDouble(0.0, 1.0);
  return v;
}

std::span<const double> S(const std::vector<double>& v) {
  return std::span<const double>(v.data(), v.size());
}

TEST(EuclideanTest, KnownValue) {
  std::vector<double> a = {0.0, 0.0}, b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredEuclidean(S(a), S(b)), 25.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(S(a), S(b)), 5.0);
}

TEST(EuclideanTest, IdentityOfIndiscernibles) {
  Rng rng(1);
  const auto a = RandomVector(50, &rng);
  EXPECT_DOUBLE_EQ(EuclideanDistance(S(a), S(a)), 0.0);
}

TEST(EuclideanTest, Symmetry) {
  Rng rng(2);
  const auto a = RandomVector(33, &rng);
  const auto b = RandomVector(33, &rng);
  EXPECT_DOUBLE_EQ(EuclideanDistance(S(a), S(b)),
                   EuclideanDistance(S(b), S(a)));
}

TEST(EuclideanTest, TriangleInequality) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = RandomVector(20, &rng);
    const auto b = RandomVector(20, &rng);
    const auto c = RandomVector(20, &rng);
    EXPECT_LE(EuclideanDistance(S(a), S(c)),
              EuclideanDistance(S(a), S(b)) +
                  EuclideanDistance(S(b), S(c)) + 1e-12);
  }
}

TEST(EuclideanTest, NormalizedDividesBySqrtN) {
  std::vector<double> a = {0.0, 0.0, 0.0, 0.0};
  std::vector<double> b = {1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(EuclideanDistance(S(a), S(b)), 2.0);
  EXPECT_DOUBLE_EQ(NormalizedEuclidean(S(a), S(b)), 1.0);
}

TEST(EuclideanTest, NormalizedIsScaleInvariantInLength) {
  // Constant offset d at every point: normalized ED is d for any length.
  for (size_t n : {4u, 16u, 256u}) {
    std::vector<double> a(n, 0.2), b(n, 0.7);
    EXPECT_NEAR(NormalizedEuclidean(S(a), S(b)), 0.5, 1e-12);
  }
}

TEST(EuclideanEarlyAbandonTest, ExactWhenUnderThreshold) {
  Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = RandomVector(64, &rng);
    const auto b = RandomVector(64, &rng);
    const double exact = EuclideanDistance(S(a), S(b));
    const double ea = EuclideanEarlyAbandon(S(a), S(b), exact + 0.1);
    EXPECT_NEAR(ea, exact, 1e-12);
  }
}

TEST(EuclideanEarlyAbandonTest, InfWhenOverThreshold) {
  Rng rng(5);
  const auto a = RandomVector(64, &rng);
  auto b = RandomVector(64, &rng);
  for (auto& x : b) x += 10.0;  // Force a large distance.
  const double d = EuclideanEarlyAbandon(S(a), S(b), 1.0);
  EXPECT_TRUE(std::isinf(d));
}

TEST(EuclideanEarlyAbandonTest, SquaredVariantThresholdSemantics) {
  std::vector<double> a = {0.0, 0.0}, b = {1.0, 1.0};  // Squared ED = 2.
  EXPECT_DOUBLE_EQ(SquaredEuclideanEarlyAbandon(S(a), S(b), 2.0), 2.0);
  EXPECT_TRUE(std::isinf(SquaredEuclideanEarlyAbandon(S(a), S(b), 1.9)));
}

TEST(EuclideanTest, EmptyInputsAreZero) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(SquaredEuclidean(S(empty), S(empty)), 0.0);
}

// ------------------------------------------------ SquaredEuclideanBatch.

constexpr double kInf = std::numeric_limits<double>::infinity();

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// `series` (all of length n) packed lane-major into whole blocks of
/// kEdBatchLanes; lanes past the last series hold `filler`.
std::vector<double> PackLanes(const std::vector<std::vector<double>>& series,
                              size_t n, double filler = 0.0) {
  const size_t blocks = (series.size() + kEdBatchLanes - 1) / kEdBatchLanes;
  std::vector<double> packed(blocks * kEdBatchLanes * n, filler);
  for (size_t c = 0; c < series.size(); ++c) {
    const size_t lane = c % kEdBatchLanes;
    for (size_t i = 0; i < n; ++i) {
      packed[(c - lane) * n + i * kEdBatchLanes + lane] = series[c][i];
    }
  }
  return packed;
}

std::string KernelName(LaneKernel kernel) {
  return kernel == LaneKernel::kAvx2 ? "Avx2" : "Portable";
}

class EuclideanBatchTest : public ::testing::TestWithParam<LaneKernel> {
 protected:
  void SetUp() override {
    if (!LaneKernelSupported(GetParam())) {
      GTEST_SKIP() << KernelName(GetParam()) << " kernel unsupported here";
    }
  }

  // Scores `series` against `query` through the kernel under test and
  // checks every lane against the scalar kernel; returns the results.
  std::vector<double> ExpectLanesMatchScalar(
      const std::vector<double>& query,
      const std::vector<std::vector<double>>& series, double threshold_sq,
      double filler = 0.0) {
    const std::vector<double> packed =
        PackLanes(series, query.size(), filler);
    std::vector<double> out(series.size(), -1.0);
    SquaredEuclideanBatchWith(GetParam(), query, packed, series.size(),
                              threshold_sq, out);
    for (size_t c = 0; c < series.size(); ++c) {
      const double expected =
          SquaredEuclideanEarlyAbandon(S(query), S(series[c]), threshold_sq);
      EXPECT_TRUE(SameBits(out[c], expected))
          << "lane " << c << " of " << series.size() << ": batch " << out[c]
          << " vs scalar " << expected << " (n=" << query.size()
          << " threshold_sq=" << threshold_sq << ")";
    }
    return out;
  }
};

TEST_P(EuclideanBatchTest, EveryLaneCountAndLength) {
  Rng rng(21);
  for (size_t count = 1; count <= 33; ++count) {
    for (size_t n = 1; n <= 160; ++n) {
      const auto query = RandomVector(n, &rng);
      std::vector<std::vector<double>> series;
      for (size_t c = 0; c < count; ++c) {
        series.push_back(RandomVector(n, &rng));
      }
      const std::vector<double> exact =
          ExpectLanesMatchScalar(query, series, kInf);
      for (size_t c = 0; c < count; ++c) {
        ASSERT_TRUE(SameBits(exact[c], SquaredEuclidean(S(query),
                                                        S(series[c]))))
            << "lane " << c << " n " << n;
      }
      std::vector<double> sorted = exact;
      std::sort(sorted.begin(), sorted.end());
      // Above every lane: no lane stops. At a lane's own distance: it is
      // kept exactly (the threshold is inclusive). At the median: some
      // lanes stop. Below every lane: all stop.
      ExpectLanesMatchScalar(query, series, sorted.back() * 2);
      ExpectLanesMatchScalar(query, series, sorted.back());
      ExpectLanesMatchScalar(query, series, sorted.front());
      ExpectLanesMatchScalar(query, series, sorted[sorted.size() / 2]);
      ExpectLanesMatchScalar(query, series, sorted.front() / 2);
    }
  }
}

TEST_P(EuclideanBatchTest, ThresholdsStopNoSomeOrAllLanes) {
  Rng rng(22);
  const size_t n = 64;
  const auto query = RandomVector(n, &rng);
  std::vector<std::vector<double>> series;
  for (size_t c = 0; c < 21; ++c) series.push_back(RandomVector(n, &rng));
  std::vector<double> sorted = ExpectLanesMatchScalar(query, series, kInf);
  std::sort(sorted.begin(), sorted.end());

  const auto stopped = [](const std::vector<double>& out) {
    return static_cast<size_t>(
        std::count_if(out.begin(), out.end(),
                      [](double d) { return std::isinf(d); }));
  };
  EXPECT_EQ(stopped(ExpectLanesMatchScalar(query, series, sorted.back())), 0u);
  const size_t some = stopped(
      ExpectLanesMatchScalar(query, series, sorted[sorted.size() / 2]));
  EXPECT_GT(some, 0u);
  EXPECT_LT(some, series.size());
  EXPECT_EQ(stopped(ExpectLanesMatchScalar(query, series, 1e-3)),
            series.size());
  EXPECT_EQ(stopped(ExpectLanesMatchScalar(query, series, -1.0)),
            series.size());
  // Lanes past the last series hold no result; whatever they hold, even
  // NaN, cannot change one.
  ExpectLanesMatchScalar(query, series, sorted[sorted.size() / 2], std::nan(""));
  ExpectLanesMatchScalar(query, series, 1e-3, std::nan(""));
}

TEST_P(EuclideanBatchTest, DuplicatesAndEmptySeries) {
  Rng rng(23);
  const auto query = RandomVector(40, &rng);
  const std::vector<std::vector<double>> copies(17, query);
  for (double d : ExpectLanesMatchScalar(query, copies, 0.0)) {
    EXPECT_TRUE(SameBits(d, 0.0));
  }
  // Empty series: the scalar kernel returns its empty sum, 0, at any
  // threshold.
  const std::vector<std::vector<double>> empties(5);
  for (double threshold : {kInf, 1.0, -1.0}) {
    for (double d : ExpectLanesMatchScalar({}, empties, threshold)) {
      EXPECT_TRUE(SameBits(d, 0.0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, EuclideanBatchTest,
    ::testing::Values(LaneKernel::kPortable, LaneKernel::kAvx2),
    [](const ::testing::TestParamInfo<LaneKernel>& info) {
      return KernelName(info.param);
    });

TEST(EuclideanBatchDispatchTest, DefaultKernelMatchesScalar) {
  Rng rng(24);
  const size_t n = 128;
  const auto query = RandomVector(n, &rng);
  std::vector<std::vector<double>> series;
  for (size_t c = 0; c < 40; ++c) series.push_back(RandomVector(n, &rng));
  const std::vector<double> packed = PackLanes(series, n);
  for (double threshold : {kInf, 12.0, 8.0}) {
    std::vector<double> out(series.size());
    SquaredEuclideanBatch(query, packed, series.size(), threshold, out);
    for (size_t c = 0; c < series.size(); ++c) {
      EXPECT_TRUE(SameBits(
          out[c], SquaredEuclideanEarlyAbandon(S(query), S(series[c]),
                                               threshold)))
          << "lane " << c << " threshold " << threshold;
    }
  }
}

}  // namespace
}  // namespace onex
