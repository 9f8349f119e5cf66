// Tests for the post-paper multi-group search knob
// (QueryOptions::groups_to_search): it must preserve every invariant
// and move accuracy monotonically toward the oracle.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/standard_dtw.h"
#include "core/onex_base.h"
#include "core/query_processor.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "util/rng.h"

namespace onex {
namespace {

std::span<const double> S(const std::vector<double>& v) {
  return std::span<const double>(v.data(), v.size());
}

Dataset TestDataset(uint64_t seed = 42) {
  GenOptions gen;
  gen.num_series = 10;
  gen.length = 24;
  gen.seed = seed;
  Dataset d = MakeItalyPower(gen);
  MinMaxNormalize(&d);
  return d;
}

// -------------------------------------------------- Multi-group search.

TEST(MultiGroupSearchTest, NeverWorseThanSingleGroup) {
  Dataset d = TestDataset();
  OnexOptions options;
  options.lengths = {8, 24, 8};
  auto built = OnexBase::Build(std::move(d), options);
  ASSERT_TRUE(built.ok());
  OnexBase base = std::move(built).value();

  QueryOptions one;
  QueryOptions three;
  three.groups_to_search = 3;
  three.stop_within_st_half = false;
  one.stop_within_st_half = false;
  QueryProcessor p1(&base, one);
  QueryProcessor p3(&base, three);

  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> query(16);
    for (auto& x : query) x = rng.UniformDouble(0.0, 1.0);
    auto r1 = p1.FindBestMatch(S(query));
    auto r3 = p3.FindBestMatch(S(query));
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r3.ok());
    EXPECT_LE(r3.value().distance, r1.value().distance + 1e-9);
  }
}

TEST(MultiGroupSearchTest, ApproachesOracleWithMoreGroups) {
  Dataset d = TestDataset(7);
  LengthSpec lengths{8, 24, 8};
  OnexOptions options;
  options.lengths = lengths;
  auto built = OnexBase::Build(d, options);
  ASSERT_TRUE(built.ok());
  OnexBase base = std::move(built).value();
  StandardDtwSearch oracle(&d, lengths);

  Rng rng(11);
  double err1 = 0.0, err4 = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> query(16);
    for (auto& x : query) x = rng.UniformDouble(0.1, 0.9);
    const double opt = oracle.FindBestMatch(S(query)).distance;
    QueryOptions q1_opts;
    q1_opts.stop_within_st_half = false;
    QueryOptions q4_opts = q1_opts;
    q4_opts.groups_to_search = 4;
    QueryProcessor p1(&base, q1_opts), p4(&base, q4_opts);
    err1 += p1.FindBestMatch(S(query)).value().distance - opt;
    err4 += p4.FindBestMatch(S(query)).value().distance - opt;
  }
  EXPECT_LE(err4, err1 + 1e-9);
  EXPECT_GE(err1, 0.0);
  EXPECT_GE(err4, 0.0);
}

TEST(MultiGroupSearchTest, MoreGroupsThanExistIsSafe) {
  Dataset d = TestDataset();
  OnexOptions options;
  options.lengths = {8, 8, 1};
  auto built = OnexBase::Build(std::move(d), options);
  ASSERT_TRUE(built.ok());
  QueryOptions huge;
  huge.groups_to_search = 10000;
  QueryProcessor processor(&built.value(), huge);
  std::vector<double> query(8, 0.5);
  auto result = processor.FindBestMatchOfLength(S(query), 8);
  ASSERT_TRUE(result.ok());
  // All groups searched -> this equals the exhaustive scan over the
  // whole length: best possible answer for the length.
  EXPECT_TRUE(std::isfinite(result.value().distance));
}

}  // namespace
}  // namespace onex
