// Tests for the SP-Space (paper Sec. 4.2): the spanning-tree pass that
// derives SThalf / STfinal, the global aggregation across lengths, and
// the S/M/L similarity degrees behind query class Q3.

#include <gtest/gtest.h>

#include <vector>

#include "core/sp_space.h"
#include "util/rng.h"
#include "util/union_find.h"

namespace onex {
namespace {

// Builds the strict upper triangle of a Dc matrix from a list of
// (k < l, distance) entries.
std::vector<double> Matrix(size_t g,
                           std::vector<std::tuple<size_t, size_t, double>>
                               entries) {
  std::vector<double> dc(g * (g - 1) / 2, 0.0);
  for (const auto& [k, l, d] : entries) dc[UpperTriangleIndex(k, l, g)] = d;
  return dc;
}

TEST(UpperTriangleIndexTest, EnumeratesPairsRowByRow) {
  for (size_t g : {2u, 3u, 7u}) {
    size_t at = 0;
    for (size_t k = 0; k < g; ++k) {
      for (size_t l = k + 1; l < g; ++l) {
        EXPECT_EQ(UpperTriangleIndex(k, l, g), at++) << k << "," << l;
      }
    }
    EXPECT_EQ(at, g * (g - 1) / 2);
  }
}

TEST(MergeThresholdsTest, SingleGroupIsBaseThreshold) {
  PrimScratch scratch(1);
  const MergeThresholds t = ComputeMergeThresholds({}, 1, 0.2, scratch);
  EXPECT_DOUBLE_EQ(t.st_half, 0.2);
  EXPECT_DOUBLE_EQ(t.st_final, 0.2);
  const MergeThresholds none = ComputeMergeThresholds({}, 0, 0.2, scratch);
  EXPECT_DOUBLE_EQ(none.st_half, 0.2);
  EXPECT_DOUBLE_EQ(none.st_final, 0.2);
}

TEST(MergeThresholdsTest, TwoGroups) {
  const auto dc = Matrix(2, {{0, 1, 0.3}});
  PrimScratch scratch(2);
  const MergeThresholds t = ComputeMergeThresholds(dc, 2, 0.2, scratch);
  // One merge event at ST' = 0.2 + 0.3: it is both "half" (1 <= 1
  // component target) and "final".
  EXPECT_DOUBLE_EQ(t.st_half, 0.5);
  EXPECT_DOUBLE_EQ(t.st_final, 0.5);
}

TEST(MergeThresholdsTest, TwoTightClustersFarApart) {
  // Groups {0,1} and {2,3} are near each other (0.1) but the clusters
  // are 1.0 apart: half-merge happens at st + 0.1, full at st + 1.0.
  const auto dc = Matrix(4, {{0, 1, 0.1},
                             {2, 3, 0.1},
                             {0, 2, 1.0},
                             {0, 3, 1.0},
                             {1, 2, 1.0},
                             {1, 3, 1.0}});
  PrimScratch scratch(4);
  const MergeThresholds t = ComputeMergeThresholds(dc, 4, 0.2, scratch);
  EXPECT_DOUBLE_EQ(t.st_half, 0.2 + 0.1);
  EXPECT_DOUBLE_EQ(t.st_final, 0.2 + 1.0);
}

TEST(MergeThresholdsTest, ChainMergesProgressively) {
  // Chain 0-1-2-3 with increasing edge weights.
  const auto dc = Matrix(4, {{0, 1, 0.1},
                             {1, 2, 0.2},
                             {2, 3, 0.3},
                             {0, 2, 0.9},
                             {0, 3, 0.9},
                             {1, 3, 0.9}});
  PrimScratch scratch(4);
  const MergeThresholds t = ComputeMergeThresholds(dc, 4, 0.0, scratch);
  // After edge 0.1: 3 components; after 0.2: 2 components = half (g/2);
  // after 0.3: 1 component = final.
  EXPECT_DOUBLE_EQ(t.st_half, 0.2);
  EXPECT_DOUBLE_EQ(t.st_final, 0.3);
}

// Property: the spanning-tree pass agrees with a brute-force threshold
// scan using union-find at each candidate threshold.
TEST(MergeThresholdsTest, AgreesWithBruteForceSweep) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t g = 2 + rng.Uniform(10);
    std::vector<double> dc(g * (g - 1) / 2);
    for (double& d : dc) d = rng.UniformDouble(0.01, 1.0);
    const double st = 0.2;
    PrimScratch scratch(g);
    const MergeThresholds got = ComputeMergeThresholds(dc, g, st, scratch);

    auto components_at = [&](double st_prime) {
      UnionFind uf(g);
      for (size_t k = 0; k < g; ++k) {
        for (size_t l = k + 1; l < g; ++l) {
          if (st_prime - st >= dc[UpperTriangleIndex(k, l, g)]) {
            uf.Union(k, l);
          }
        }
      }
      return uf.components();
    };
    // At the reported thresholds the conditions hold (with an epsilon:
    // (st + d) - st can round below d in floating point)...
    EXPECT_LE(components_at(got.st_half + 1e-9), (g + 1) / 2);
    EXPECT_EQ(components_at(got.st_final + 1e-9), 1u);
    // ...and just below them they do not.
    EXPECT_GT(components_at(got.st_half - 1e-9),
              (g + 1) / 2);
    EXPECT_GT(components_at(got.st_final - 1e-9), 1u);
  }
}

// ----------------------------------------------------------------- Degrees.

TEST(ParseDegreeTest, Letters) {
  EXPECT_EQ(ParseDegree("S"), SimilarityDegree::kStrict);
  EXPECT_EQ(ParseDegree("strict"), SimilarityDegree::kStrict);
  EXPECT_EQ(ParseDegree("M"), SimilarityDegree::kMedium);
  EXPECT_EQ(ParseDegree("L"), SimilarityDegree::kLoose);
  EXPECT_EQ(ParseDegree("loose"), SimilarityDegree::kLoose);
  EXPECT_EQ(ParseDegree(""), SimilarityDegree::kMedium);
  EXPECT_EQ(ParseDegree("x"), SimilarityDegree::kMedium);
}

// ----------------------------------------------------------------- SpSpace.

TEST(SpSpaceTest, GlobalIsMaxOfLocals) {
  SpSpace sp;
  sp.AddLength(8, {0.5, 0.78});   // The paper's Fig. 1 example values.
  sp.AddLength(16, {0.6, 0.7});
  sp.AddLength(24, {0.4, 0.75});
  const MergeThresholds global = sp.Global();
  EXPECT_DOUBLE_EQ(global.st_half, 0.6);
  EXPECT_DOUBLE_EQ(global.st_final, 0.78);
}

TEST(SpSpaceTest, LocalLookup) {
  SpSpace sp;
  sp.AddLength(8, {0.5, 0.78});
  EXPECT_DOUBLE_EQ(sp.Local(8).st_final, 0.78);
  EXPECT_DOUBLE_EQ(sp.Local(99).st_half, 0.0);  // Unknown length.
}

TEST(SpSpaceTest, RecommendIntervalsPartitionTheAxis) {
  SpSpace sp;
  sp.AddLength(8, {0.5, 0.78});
  const auto strict = sp.Recommend(SimilarityDegree::kStrict, 8);
  const auto medium = sp.Recommend(SimilarityDegree::kMedium, 8);
  const auto loose = sp.Recommend(SimilarityDegree::kLoose, 8);
  EXPECT_DOUBLE_EQ(strict.first, 0.0);
  EXPECT_DOUBLE_EQ(strict.second, medium.first);
  EXPECT_DOUBLE_EQ(medium.second, loose.first);
  EXPECT_GT(loose.second, loose.first);
}

TEST(SpSpaceTest, UnknownLengthFallsBackToGlobal) {
  SpSpace sp;
  sp.AddLength(8, {0.5, 0.78});
  const auto from_unknown = sp.Recommend(SimilarityDegree::kStrict, 999);
  const auto global = sp.Recommend(SimilarityDegree::kStrict, 0);
  EXPECT_DOUBLE_EQ(from_unknown.second, global.second);
}

TEST(SpSpaceTest, ClassifyMatchesPaperDefinition) {
  SpSpace sp;
  sp.AddLength(8, {0.5, 0.78});
  // Paper Sec. 4.2: S when ST <= SThalf, M in [SThalf, STfinal],
  // L when ST >= STfinal.
  EXPECT_EQ(sp.Classify(0.3, 8), SimilarityDegree::kStrict);
  EXPECT_EQ(sp.Classify(0.5, 8), SimilarityDegree::kStrict);
  EXPECT_EQ(sp.Classify(0.6, 8), SimilarityDegree::kMedium);
  EXPECT_EQ(sp.Classify(0.78, 8), SimilarityDegree::kLoose);
  EXPECT_EQ(sp.Classify(0.9, 8), SimilarityDegree::kLoose);
}

}  // namespace
}  // namespace onex
