// Tests for the lane-batched DTW kernels: every lane of every kernel
// must reproduce the scalar DtwEarlyAbandon / DtwDistance bit for bit
// (compared with memcmp, never a tolerance) — for unequal lengths,
// every band shape, thresholds that abandon no, some or all lanes, and
// batch sizes that leave partial tail batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "distance/dtw.h"
#include "util/rng.h"

namespace onex {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->UniformDouble(0.0, 1.0);
  return v;
}

struct Batch {
  std::vector<double> query;
  std::vector<std::vector<double>> storage;
  std::vector<std::span<const double>> candidates;
};

Batch MakeBatch(size_t n, size_t m, size_t count, uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  batch.query = RandomVector(n, &rng);
  for (size_t c = 0; c < count; ++c) {
    batch.storage.push_back(RandomVector(m, &rng));
  }
  for (const auto& v : batch.storage) batch.candidates.emplace_back(v);
  return batch;
}

std::string KernelName(LaneKernel kernel) {
  return kernel == LaneKernel::kAvx2 ? "Avx2" : "Portable";
}

class DtwBatchTest : public ::testing::TestWithParam<LaneKernel> {
 protected:
  void SetUp() override {
    if (!LaneKernelSupported(GetParam())) {
      GTEST_SKIP() << KernelName(GetParam()) << " kernel unsupported here";
    }
  }

  // Runs the batch through the kernel under test and checks every lane
  // against the scalar kernel; returns the batch's distances.
  std::vector<double> ExpectLanesMatchScalar(const Batch& batch,
                                             double threshold,
                                             const DtwOptions& options) {
    std::vector<double> out(batch.candidates.size(), -1.0);
    DtwEarlyAbandonBatchWith(GetParam(), batch.query, batch.candidates,
                             threshold, out, options);
    for (size_t c = 0; c < batch.candidates.size(); ++c) {
      const double expected = DtwEarlyAbandon(
          batch.query, batch.candidates[c], threshold, options);
      EXPECT_TRUE(SameBits(out[c], expected))
          << "lane " << c << " of " << batch.candidates.size()
          << ": batch " << out[c] << " vs scalar " << expected
          << " (n=" << batch.query.size()
          << " m=" << batch.candidates[c].size()
          << " window=" << options.window << " threshold=" << threshold
          << ")";
      if (std::isinf(threshold) && threshold > 0) {
        const double exact =
            DtwDistance(batch.query, batch.candidates[c], options);
        EXPECT_TRUE(SameBits(out[c], exact)) << "lane " << c;
      }
    }
    return out;
  }
};

TEST_P(DtwBatchTest, EveryBatchSizeIncludingPartialTails) {
  for (size_t count = 1; count <= 33; ++count) {
    const Batch batch = MakeBatch(37, 29, count, 100 + count);
    ExpectLanesMatchScalar(batch, kInf, DtwOptions{});
  }
}

TEST_P(DtwBatchTest, BandShapesWithUnequalLengths) {
  struct Shape {
    size_t n, m;
    int window;
  };
  const Shape shapes[] = {
      {48, 48, -1},  // Unconstrained, equal lengths.
      {40, 25, -1},  // Unconstrained, query longer.
      {25, 40, -1},  // Unconstrained, query shorter.
      {48, 48, 0},   // Diagonal only.
      {31, 31, 0},
      {40, 25, 0},   // Window 0 widens to |n - m|.
      {40, 25, 3},   // Window below |n - m|.
      {25, 40, 3},
      {64, 64, DtwOptions::FromRatio(0.1, 64, 64).window},  // 10% band.
      {70, 60, DtwOptions::FromRatio(0.1, 70, 60).window},
      {1, 1, -1},
      {1, 9, -1},
      {9, 1, 2},
  };
  for (const Shape& shape : shapes) {
    for (size_t count : {1, 5, 16, 19}) {
      const Batch batch =
          MakeBatch(shape.n, shape.m, count, shape.n * 131 + shape.m + count);
      ExpectLanesMatchScalar(batch, kInf, DtwOptions{shape.window});
    }
  }
}

TEST_P(DtwBatchTest, ThresholdsAbandonNoSomeOrAllLanes) {
  const DtwOptions options{};
  const Batch batch = MakeBatch(50, 44, 21, 7);
  const std::vector<double> exact = ExpectLanesMatchScalar(batch, kInf, options);

  // Negative: every lane is +inf without any DP work.
  for (double d : ExpectLanesMatchScalar(batch, -0.5, options)) {
    EXPECT_TRUE(std::isinf(d));
  }
  // Far below every distance: every lane abandons.
  for (double d : ExpectLanesMatchScalar(batch, 1e-3, options)) {
    EXPECT_TRUE(std::isinf(d));
  }
  // At the median distance: some lanes abandon, the rest finish.
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  const std::vector<double> some =
      ExpectLanesMatchScalar(batch, median, options);
  size_t abandoned = 0;
  for (double d : some) abandoned += std::isinf(d) ? 1 : 0;
  EXPECT_GT(abandoned, 0u);
  EXPECT_LT(abandoned, some.size());
  // Exactly at a lane's distance, and just above the largest.
  ExpectLanesMatchScalar(batch, sorted.front(), options);
  ExpectLanesMatchScalar(batch, sorted.back() * (1 + 1e-12), options);
  // Banded, with a threshold that abandons part of the batch.
  ExpectLanesMatchScalar(batch, median, DtwOptions{4});
}

TEST_P(DtwBatchTest, EmptyInputs) {
  const Batch empty_query = MakeBatch(0, 8, 3, 1);
  ExpectLanesMatchScalar(empty_query, kInf, DtwOptions{});
  const Batch empty_candidates = MakeBatch(8, 0, 3, 2);
  ExpectLanesMatchScalar(empty_candidates, kInf, DtwOptions{});
  const Batch both = MakeBatch(0, 0, 2, 3);
  ExpectLanesMatchScalar(both, 1.0, DtwOptions{});
  ExpectLanesMatchScalar(both, -1.0, DtwOptions{});
  std::vector<double> out;
  DtwEarlyAbandonBatchWith(GetParam(), empty_query.query, {}, kInf, out);
}

TEST_P(DtwBatchTest, ExactDuplicatesScoreZero) {
  // Identical candidates take the all-diagonal zero path in every lane.
  Batch batch = MakeBatch(33, 33, 17, 9);
  for (auto& v : batch.storage) v = batch.query;
  const std::vector<double> out =
      ExpectLanesMatchScalar(batch, 0.0, DtwOptions{});
  for (double d : out) EXPECT_TRUE(SameBits(d, 0.0));
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, DtwBatchTest,
    ::testing::Values(LaneKernel::kPortable, LaneKernel::kAvx2),
    [](const ::testing::TestParamInfo<LaneKernel>& info) {
      return KernelName(info.param);
    });

TEST(DtwBatchDispatchTest, DefaultKernelMatchesScalar) {
  const Batch batch = MakeBatch(128, 128, 40, 5);
  const double threshold = 2.0;
  std::vector<double> out(batch.candidates.size());
  DtwEarlyAbandonBatch(batch.query, batch.candidates, threshold, out);
  for (size_t c = 0; c < batch.candidates.size(); ++c) {
    EXPECT_TRUE(SameBits(
        out[c], DtwEarlyAbandon(batch.query, batch.candidates[c], threshold)))
        << "lane " << c;
  }
}

}  // namespace
}  // namespace onex
