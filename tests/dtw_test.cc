// Tests for the DTW kernels (paper Defs. 3 and 6): hand-computed values,
// a full-matrix reference implementation, warping-path validity, band and
// early-abandon semantics, and normalized-DTW scaling — with TEST_P
// sweeps over lengths and seeds.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "distance/dtw.h"
#include "distance/euclidean.h"
#include "util/rng.h"

namespace onex {
namespace {

std::span<const double> S(const std::vector<double>& v) {
  return std::span<const double>(v.data(), v.size());
}

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->UniformDouble(0.0, 1.0);
  return v;
}

// Unconstrained reference DTW: full O(n*m) matrix, squared point costs,
// sqrt at the end (paper Def. 3). Deliberately simple and obviously
// correct; the production kernel must agree with it.
double ReferenceDtw(const std::vector<double>& a,
                    const std::vector<double>& b) {
  const size_t n = a.size(), m = b.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(n + 1,
                                      std::vector<double>(m + 1, inf));
  dp[0][0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const double d = a[i - 1] - b[j - 1];
      dp[i][j] = d * d + std::min({dp[i - 1][j - 1], dp[i - 1][j],
                                   dp[i][j - 1]});
    }
  }
  return std::sqrt(dp[n][m]);
}

// ------------------------------------------------------- Known values.

TEST(DtwTest, IdenticalSeriesIsZero) {
  std::vector<double> a = {1.0, 2.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(DtwDistance(S(a), S(a)), 0.0);
}

TEST(DtwTest, HandComputedTinyCase) {
  // a = (0, 1), b = (0, 0, 1): optimal path matches 0->0, 0->0, 1->1,
  // total squared cost 0.
  std::vector<double> a = {0.0, 1.0};
  std::vector<double> b = {0.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(DtwDistance(S(a), S(b)), 0.0);
}

TEST(DtwTest, HandComputedNonZeroCase) {
  // a = (0, 2), b = (1,): path must match both points of a to b's single
  // point: cost = 1 + 1 = 2, distance sqrt(2).
  std::vector<double> a = {0.0, 2.0};
  std::vector<double> b = {1.0};
  EXPECT_DOUBLE_EQ(DtwDistance(S(a), S(b)), std::sqrt(2.0));
}

TEST(DtwTest, ShiftedSpikeAlignsPerfectly) {
  // The same spike at different offsets: unconstrained DTW is 0 because
  // the flat prefix/suffix stretches — exactly what ED cannot do.
  std::vector<double> a = {0, 0, 0, 1, 0, 0, 0, 0};
  std::vector<double> b = {0, 0, 0, 0, 0, 1, 0, 0};
  EXPECT_DOUBLE_EQ(DtwDistance(S(a), S(b)), 0.0);
  EXPECT_GT(EuclideanDistance(S(a), S(b)), 1.0);
}

TEST(DtwTest, DtwNeverExceedsEdOnEqualLengths) {
  // The diagonal path is always available, so DTW <= ED (same squared
  // cost accumulation).
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = RandomVector(30, &rng);
    const auto b = RandomVector(30, &rng);
    EXPECT_LE(DtwDistance(S(a), S(b)),
              EuclideanDistance(S(a), S(b)) + 1e-9);
  }
}

TEST(DtwTest, SquaredEdBoundsSquaredDtwExactly) {
  // The range scan settles Lemma 2's representative test on ED alone,
  // which needs SquaredDtw <= SquaredEuclidean with no tolerance: the ED
  // sum adds the DP's own unfused squared costs along the diagonal (a
  // warping path under any band), and rounding is monotone.
  Rng rng(31);
  const auto steps = [&](size_t n) {
    // Plateaus on a few levels, jumping at random points.
    std::vector<double> v(n);
    double level = 0.0;
    for (auto& x : v) {
      if (rng.Uniform(5) == 0) level = static_cast<double>(rng.Uniform(4));
      x = level;
    }
    return v;
  };
  const auto huge = [&](size_t n) {
    // Mixed signs and scales up to 1e100, the largest value a base takes.
    std::vector<double> v(n);
    for (auto& x : v) {
      x = rng.UniformDouble(-1.0, 1.0) *
          std::pow(10.0, rng.UniformDouble(-100.0, 100.0));
    }
    return v;
  };
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng.Uniform(96);
    const std::vector<std::pair<std::vector<double>, std::vector<double>>>
        cases = {{RandomVector(n, &rng), RandomVector(n, &rng)},
                 {steps(n), steps(n)},
                 {huge(n), huge(n)}};
    for (const auto& [a, b] : cases) {
      const double ed_sq = SquaredEuclidean(S(a), S(b));
      for (const int window : {-1, 0, 1, 4, 16}) {
        const DtwOptions options{window};
        EXPECT_LE(SquaredDtw(S(a), S(b), options), ed_sq)
            << "n=" << n << " window=" << window;
        // The lane kernels too (two candidates, so not the scalar path).
        const std::vector<std::span<const double>> candidates = {S(b), S(a)};
        std::vector<double> out(2);
        DtwEarlyAbandonBatch(S(a), candidates,
                             std::numeric_limits<double>::infinity(), out,
                             options);
        EXPECT_LE(out[0], std::sqrt(ed_sq))
            << "n=" << n << " window=" << window;
      }
    }
  }
}

TEST(DtwTest, SymmetricForEqualLengths) {
  Rng rng(8);
  const auto a = RandomVector(40, &rng);
  const auto b = RandomVector(40, &rng);
  EXPECT_NEAR(DtwDistance(S(a), S(b)), DtwDistance(S(b), S(a)), 1e-9);
}

TEST(DtwTest, EmptyInputs) {
  std::vector<double> empty, one = {1.0};
  EXPECT_DOUBLE_EQ(DtwDistance(S(empty), S(empty)), 0.0);
  EXPECT_TRUE(std::isinf(DtwDistance(S(empty), S(one))));
}

// -------------------------------------- Agreement with reference DTW.

class DtwReferenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(DtwReferenceTest, MatchesFullMatrixReference) {
  const auto [n, m, seed] = GetParam();
  Rng rng(seed);
  const auto a = RandomVector(n, &rng);
  const auto b = RandomVector(m, &rng);
  EXPECT_NEAR(DtwDistance(S(a), S(b)), ReferenceDtw(a, b), 1e-9);
}

TEST_P(DtwReferenceTest, SquaredIsSquareOfDistance) {
  const auto [n, m, seed] = GetParam();
  Rng rng(seed + 1);
  const auto a = RandomVector(n, &rng);
  const auto b = RandomVector(m, &rng);
  const double d = DtwDistance(S(a), S(b));
  EXPECT_NEAR(SquaredDtw(S(a), S(b)), d * d, 1e-9);
}

TEST_P(DtwReferenceTest, NormalizedDividesByTwiceMaxLength) {
  const auto [n, m, seed] = GetParam();
  Rng rng(seed + 2);
  const auto a = RandomVector(n, &rng);
  const auto b = RandomVector(m, &rng);
  const double expected =
      DtwDistance(S(a), S(b)) / (2.0 * static_cast<double>(std::max(n, m)));
  EXPECT_NEAR(NormalizedDtw(S(a), S(b)), expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DtwReferenceTest,
    ::testing::Values(std::make_tuple(5, 5, 1), std::make_tuple(12, 7, 2),
                      std::make_tuple(7, 12, 3), std::make_tuple(1, 9, 4),
                      std::make_tuple(33, 33, 5), std::make_tuple(64, 48, 6),
                      std::make_tuple(2, 2, 7), std::make_tuple(100, 90, 8)));

// ------------------------------------------------------------- Banding.

TEST(DtwBandTest, WindowZeroEqualsEuclideanOnEqualLengths) {
  Rng rng(9);
  const auto a = RandomVector(25, &rng);
  const auto b = RandomVector(25, &rng);
  DtwOptions options{0};
  EXPECT_NEAR(DtwDistance(S(a), S(b), options),
              EuclideanDistance(S(a), S(b)), 1e-9);
}

TEST(DtwBandTest, WideningWindowIsMonotoneNonIncreasing) {
  Rng rng(10);
  const auto a = RandomVector(50, &rng);
  const auto b = RandomVector(50, &rng);
  double prev = std::numeric_limits<double>::infinity();
  for (int w : {0, 1, 2, 4, 8, 16, 50}) {
    DtwOptions options{w};
    const double d = DtwDistance(S(a), S(b), options);
    EXPECT_LE(d, prev + 1e-9) << "window " << w;
    prev = d;
  }
}

TEST(DtwBandTest, LargeWindowEqualsUnconstrained) {
  Rng rng(11);
  const auto a = RandomVector(40, &rng);
  const auto b = RandomVector(40, &rng);
  DtwOptions wide{40};
  EXPECT_NEAR(DtwDistance(S(a), S(b), wide), DtwDistance(S(a), S(b)), 1e-9);
}

TEST(DtwBandTest, UnequalLengthsWindowStaysFeasible) {
  // Window smaller than the length difference must still produce a
  // finite result (effective window = max(w, |n-m|)).
  Rng rng(12);
  const auto a = RandomVector(30, &rng);
  const auto b = RandomVector(10, &rng);
  DtwOptions options{1};
  EXPECT_TRUE(std::isfinite(DtwDistance(S(a), S(b), options)));
}

TEST(DtwBandTest, FromRatioComputesPoints) {
  const DtwOptions options = DtwOptions::FromRatio(0.1, 200, 100);
  EXPECT_EQ(options.window, 20);
  const DtwOptions unconstrained = DtwOptions::FromRatio(-1.0, 200, 100);
  EXPECT_LT(unconstrained.window, 0);
  // A ratio of 1 or more spans every cell, and one whose window would
  // not fit an int (a finite ratio a base accepts) must not wrap.
  EXPECT_EQ(DtwOptions::FromRatio(1.5, 200, 100).window, 200);
  EXPECT_EQ(DtwOptions::FromRatio(1e300, 200, 100).window, 200);
}

// ------------------------------------------------------ Early abandon.

TEST(DtwEarlyAbandonTest, ExactWhenUnderThreshold) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = RandomVector(40, &rng);
    const auto b = RandomVector(40, &rng);
    const double exact = DtwDistance(S(a), S(b));
    EXPECT_NEAR(DtwEarlyAbandon(S(a), S(b), exact + 1e-6), exact, 1e-9);
  }
}

TEST(DtwEarlyAbandonTest, InfWhenThresholdBelowDistance) {
  Rng rng(14);
  const auto a = RandomVector(40, &rng);
  auto b = RandomVector(40, &rng);
  for (auto& x : b) x += 5.0;
  const double exact = DtwDistance(S(a), S(b));
  EXPECT_TRUE(std::isinf(DtwEarlyAbandon(S(a), S(b), exact * 0.5)));
}

TEST(DtwEarlyAbandonTest, NegativeThresholdAlwaysInf) {
  std::vector<double> a = {1.0, 2.0};
  EXPECT_TRUE(std::isinf(DtwEarlyAbandon(S(a), S(a), -1.0)));
}

TEST(DtwEarlyAbandonTest, CbVariantExactWithZeroBounds) {
  Rng rng(15);
  const auto a = RandomVector(30, &rng);
  const auto b = RandomVector(30, &rng);
  std::vector<double> cb(31, 0.0);
  const double exact = DtwDistance(S(a), S(b));
  EXPECT_NEAR(DtwEarlyAbandonCb(S(a), S(b), S(cb), exact + 1e-6, {}),
              exact, 1e-9);
}

// -------------------------------------------------------------- Paths.

class DtwPathTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(DtwPathTest, PathIsValidWarpingPath) {
  const auto [n, m, seed] = GetParam();
  Rng rng(seed);
  const auto a = RandomVector(n, &rng);
  const auto b = RandomVector(m, &rng);
  std::vector<std::pair<uint32_t, uint32_t>> path;
  const double d = DtwWithPath(S(a), S(b), &path);

  // Endpoints (paper Sec. 2: p1 = (1,1), pT = (n,m)).
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front().first, 0u);
  EXPECT_EQ(path.front().second, 0u);
  EXPECT_EQ(path.back().first, n - 1);
  EXPECT_EQ(path.back().second, m - 1);

  // Monotone, continuous steps.
  for (size_t t = 1; t < path.size(); ++t) {
    const int di = static_cast<int>(path[t].first) -
                   static_cast<int>(path[t - 1].first);
    const int dj = static_cast<int>(path[t].second) -
                   static_cast<int>(path[t - 1].second);
    EXPECT_GE(di, 0);
    EXPECT_GE(dj, 0);
    EXPECT_LE(di, 1);
    EXPECT_LE(dj, 1);
    EXPECT_GE(di + dj, 1);
  }

  // Path length bounds: max(n,m) <= T <= n + m - 1.
  EXPECT_GE(path.size(), std::max(n, m));
  EXPECT_LE(path.size(), n + m - 1);

  // The path's weight (Def. 3) equals the reported distance.
  double weight_sq = 0.0;
  for (const auto& [i, j] : path) {
    const double diff = a[i] - b[j];
    weight_sq += diff * diff;
  }
  EXPECT_NEAR(std::sqrt(weight_sq), d, 1e-9);

  // And it matches the rolling-row kernel.
  EXPECT_NEAR(d, DtwDistance(S(a), S(b)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DtwPathTest,
    ::testing::Values(std::make_tuple(4, 4, 21), std::make_tuple(10, 6, 22),
                      std::make_tuple(6, 10, 23), std::make_tuple(1, 5, 24),
                      std::make_tuple(32, 32, 25),
                      std::make_tuple(50, 20, 26)));

}  // namespace
}  // namespace onex
