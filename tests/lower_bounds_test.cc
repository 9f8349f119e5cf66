// Admissibility and tightness tests for the envelope (and the extrema it
// carries) and the LB_Kim / LB_Keogh lower bounds — the machinery behind
// the paper's Sec. 5.3 pruning cascade. The central property: no bound
// may ever exceed the true (banded) DTW, or pruning would drop true best
// matches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/onex_base.h"
#include "core/serialization.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "distance/dtw.h"
#include "distance/envelope.h"
#include "distance/lb_keogh.h"
#include "distance/lb_kim.h"
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

// ---------------------------------------------------------------- Envelope.

/// lower[i] / upper[i] = min / max of v over [i - window, i + window],
/// clipped to the series, by direct scan.
Envelope BruteForceEnvelope(const std::vector<double>& v, size_t window) {
  Envelope env;
  for (size_t i = 0; i < v.size(); ++i) {
    const size_t lo = i >= window ? i - window : 0;
    const size_t hi = std::min(v.size() - 1, i + window);
    double mn = v[lo], mx = v[lo];
    for (size_t k = lo; k <= hi; ++k) {
      mn = std::min(mn, v[k]);
      mx = std::max(mx, v[k]);
    }
    env.lower.push_back(mn);
    env.upper.push_back(mx);
  }
  return env;
}

TEST(EnvelopeTest, MatchesBruteForceMinMax) {
  Rng rng(1);
  const auto v = RandomVector(100, &rng);
  for (size_t window : {0u, 1u, 5u, 20u, 100u}) {
    const Envelope env = ComputeEnvelope(S(v), window);
    const Envelope want = BruteForceEnvelope(v, window);
    EXPECT_EQ(env.lower, want.lower) << "window " << window;
    EXPECT_EQ(env.upper, want.upper) << "window " << window;
    // The series' extrema, whatever the window: the minimum of the lower
    // envelope is the series' minimum, the maximum of the upper its max.
    EXPECT_EQ(env.extrema.min, *std::min_element(v.begin(), v.end()));
    EXPECT_EQ(env.extrema.max, *std::max_element(v.begin(), v.end()));
    EXPECT_EQ(env.extrema.min, *std::min_element(env.lower.begin(),
                                                 env.lower.end()));
    EXPECT_EQ(env.extrema.max, *std::max_element(env.upper.begin(),
                                                 env.upper.end()));
  }

  // A base's envelopes carry their representative's extrema after the
  // build, after a snapshot round trip (LoadBase recomputes envelopes;
  // no extrema are stored) and after an append re-freezes groups.
  GenOptions gen;
  gen.num_series = 8;
  gen.length = 32;
  gen.seed = 7;
  Dataset data = MakeTwoPatterns(gen);
  MinMaxNormalize(&data);
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 32, 8};
  auto built = OnexBase::Build(std::move(data), options);
  ASSERT_TRUE(built.ok());
  const auto expect_extrema = [](const OnexBase& base, const char* when) {
    size_t groups = 0;
    for (size_t length : base.gti().Lengths()) {
      for (const LsiEntry& group : base.EntryFor(length)->groups) {
        const SeriesExtrema want = ExtremaOf(RepresentativeOf(group, base.dataset()));
        EXPECT_EQ(group.envelope.extrema.min, want.min) << when;
        EXPECT_EQ(group.envelope.extrema.max, want.max) << when;
        EXPECT_LE(want.min, want.max) << when;
        ++groups;
      }
    }
    EXPECT_GT(groups, 0u) << when;
  };
  expect_extrema(built.value(), "build");
  auto bytes = SaveBaseToString(built.value());
  ASSERT_TRUE(bytes.ok());
  auto loaded = LoadBaseFromBuffer(bytes.value());
  ASSERT_TRUE(loaded.ok());
  expect_extrema(loaded.value(), "load");
  std::vector<double> appended(32);
  for (size_t i = 0; i < appended.size(); ++i) {
    appended[i] = 0.5 + 0.4 * std::sin(0.3 * static_cast<double>(i));
  }
  ASSERT_TRUE(loaded.value().AppendSeries(TimeSeries(appended)).ok());
  expect_extrema(loaded.value(), "append");
}

// Every length 1-160 and every window 0..n+1: windows wider than the
// series, series shorter than one block of 2w+1 points, and series that
// end on a block boundary or inside a block, where a block-based kernel
// goes wrong. Four value levels make ties common. Values, not the sign
// of zero, are compared: LB_Keogh cannot tell two equal zeros apart.
TEST(EnvelopeTest, EqualsBruteForceAtEveryLengthAndWindow) {
  Rng rng(11);
  for (size_t n = 1; n <= 160; ++n) {
    std::vector<double> v(n);
    for (auto& x : v) x = 0.5 * static_cast<double>(rng.Uniform(4)) - 0.5;
    for (size_t window = 0; window <= n + 1; ++window) {
      const Envelope env = ComputeEnvelope(S(v), window);
      const Envelope want = BruteForceEnvelope(v, window);
      ASSERT_EQ(env.lower, want.lower) << "n " << n << " window " << window;
      ASSERT_EQ(env.upper, want.upper) << "n " << n << " window " << window;
    }
  }
}

TEST(EnvelopeTest, ContainsTheSeries) {
  Rng rng(2);
  const auto v = RandomVector(64, &rng);
  const Envelope env = ComputeEnvelope(S(v), 7);
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(env.lower[i], v[i]);
    EXPECT_GE(env.upper[i], v[i]);
  }
}

TEST(EnvelopeTest, WindowZeroIsTheSeriesItself) {
  Rng rng(3);
  const auto v = RandomVector(32, &rng);
  const Envelope env = ComputeEnvelope(S(v), 0);
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_DOUBLE_EQ(env.lower[i], v[i]);
    EXPECT_DOUBLE_EQ(env.upper[i], v[i]);
  }
}

TEST(EnvelopeTest, EmptySeries) {
  const Envelope env = ComputeEnvelope({}, 5);
  EXPECT_TRUE(env.empty());
  EXPECT_EQ(env.MemoryBytes(), 0u);
}

TEST(EnvelopeTest, WiderWindowWidensEnvelope) {
  Rng rng(4);
  const auto v = RandomVector(64, &rng);
  const Envelope narrow = ComputeEnvelope(S(v), 2);
  const Envelope wide = ComputeEnvelope(S(v), 10);
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(wide.lower[i], narrow.lower[i]);
    EXPECT_GE(wide.upper[i], narrow.upper[i]);
  }
}

// ------------------------------------------------- Admissibility sweeps.

class LowerBoundSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(LowerBoundSweep, LbKimNeverExceedsDtw) {
  const auto [n, m, seed] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RandomVector(n, &rng);
    const auto b = RandomVector(m, &rng);
    const double dtw = DtwDistance(S(a), S(b));
    const double lb = LbKim(S(a), S(b));
    EXPECT_LE(lb, dtw + 1e-9);
    // The form that takes stored extrema (a representative's come with
    // its envelope) is the same bound, bit for bit.
    const double stored = LbKim(S(a), ExtremaOf(S(a)), S(b),
                                ComputeEnvelope(S(b), 3).extrema);
    EXPECT_EQ(std::memcmp(&stored, &lb, sizeof(double)), 0)
        << stored << " vs " << lb;
  }
}

TEST_P(LowerBoundSweep, LbKeoghNeverExceedsBandedDtw) {
  const auto [n, m, seed] = GetParam();
  if (n != m) return;  // LB_Keogh requires equal lengths.
  Rng rng(seed + 200);
  for (size_t window : {1u, 3u, 8u}) {
    const auto a = RandomVector(n, &rng);
    const auto b = RandomVector(n, &rng);
    const Envelope env_b = ComputeEnvelope(S(b), window);
    const double lb = LbKeogh(S(a), env_b);
    DtwOptions options{static_cast<int>(window)};
    const double dtw = DtwDistance(S(a), S(b), options);
    EXPECT_LE(lb, dtw + 1e-9) << "window " << window;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LowerBoundSweep,
    ::testing::Values(std::make_tuple(8, 8, 1), std::make_tuple(32, 32, 2),
                      std::make_tuple(64, 64, 3), std::make_tuple(16, 24, 4),
                      std::make_tuple(24, 16, 5), std::make_tuple(4, 4, 6),
                      std::make_tuple(128, 128, 7),
                      std::make_tuple(5, 50, 8)));

// ------------------------------------------------------ LB_Keogh details.

TEST(LbKeoghTest, ZeroWhenQueryInsideEnvelope) {
  Rng rng(10);
  const auto b = RandomVector(32, &rng);
  const Envelope env = ComputeEnvelope(S(b), 3);
  // The candidate itself lies inside its own envelope.
  EXPECT_DOUBLE_EQ(LbKeogh(S(b), env), 0.0);
}

TEST(LbKeoghTest, EarlyAbandonMatchesExact) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = RandomVector(48, &rng);
    const auto b = RandomVector(48, &rng);
    const Envelope env = ComputeEnvelope(S(b), 4);
    const double exact = LbKeogh(S(a), env);
    EXPECT_NEAR(LbKeoghEarlyAbandon(S(a), env, exact + 1e-6), exact, 1e-9);
    if (exact > 0.01) {
      EXPECT_TRUE(
          std::isinf(LbKeoghEarlyAbandon(S(a), env, exact * 0.5)));
    }
  }
}

TEST(LbKeoghTest, ContributionsSumToSquaredBound) {
  Rng rng(12);
  const auto a = RandomVector(40, &rng);
  const auto b = RandomVector(40, &rng);
  const Envelope env = ComputeEnvelope(S(b), 5);
  std::vector<double> contributions;
  const double lb = LbKeoghWithContributions(S(a), env, &contributions);
  ASSERT_EQ(contributions.size(), a.size());
  double sum = 0.0;
  for (double c : contributions) {
    EXPECT_GE(c, 0.0);
    sum += c;
  }
  EXPECT_NEAR(std::sqrt(sum), lb, 1e-9);
}

TEST(LbKeoghTest, CumulativeBoundIsReversedPrefixSum) {
  const std::vector<double> contributions = {1.0, 2.0, 3.0, 4.0};
  const auto cb = CumulativeBound(S(contributions));
  ASSERT_EQ(cb.size(), 5u);
  EXPECT_DOUBLE_EQ(cb[0], 10.0);
  EXPECT_DOUBLE_EQ(cb[1], 9.0);
  EXPECT_DOUBLE_EQ(cb[3], 4.0);
  EXPECT_DOUBLE_EQ(cb[4], 0.0);
}

// CB-pruned DTW must stay exact when fed admissible bounds.
TEST(LbKeoghTest, CbPrunedDtwIsExactWithRealContributions) {
  Rng rng(14);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = RandomVector(40, &rng);
    const auto b = RandomVector(40, &rng);
    const size_t window = 4;
    const Envelope env_b = ComputeEnvelope(S(b), window);
    std::vector<double> contributions;
    LbKeoghWithContributions(S(a), env_b, &contributions);
    const auto cb = CumulativeBound(S(contributions));
    DtwOptions options{static_cast<int>(window)};
    const double exact = DtwDistance(S(a), S(b), options);
    const double pruned = DtwEarlyAbandonCb(
        S(a), S(b), std::span<const double>(cb.data(), cb.size()),
        exact + 1e-6, options);
    EXPECT_NEAR(pruned, exact, 1e-9);
  }
}

// ----------------------------------------------------------- LB_Kim edge.

TEST(LbKimTest, ExactOnSinglePointSeries) {
  std::vector<double> a = {3.0}, b = {1.0};
  // Single elements: DTW = |3-1| = 2 and LB_Kim reaches it.
  EXPECT_DOUBLE_EQ(LbKim(S(a), S(b)), 2.0);
  EXPECT_DOUBLE_EQ(DtwDistance(S(a), S(b)), 2.0);
}

TEST(LbKimTest, UsesMinMaxFeatures) {
  // Identical endpoints but wildly different ranges: the min/max feature
  // must kick in.
  std::vector<double> a = {0.0, 10.0, 0.0};
  std::vector<double> b = {0.0, 0.1, 0.0};
  EXPECT_GE(LbKim(S(a), S(b)), 9.9 - 1e-9);
}

TEST(LbKimTest, ZeroForIdenticalSeries) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(LbKim(S(a), S(a)), 0.0);
}

}  // namespace
}  // namespace onex
