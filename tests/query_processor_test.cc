// Tests for the online query processor (paper Sec. 5, Algorithm 2):
// Q1 exact/any-length similarity, k-similar retrieval, Q2 seasonal
// similarity in both modes, optimization-toggle consistency, and
// accuracy against the Standard-DTW gold standard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "baselines/standard_dtw.h"
#include "core/exec_context.h"
#include "core/onex_base.h"
#include "core/query_processor.h"
#include "datagen/generators.h"
#include "distance/dtw.h"
#include "distance/lb_keogh.h"
#include "distance/lb_kim.h"
#include "dataset/normalize.h"
#include "util/rng.h"

namespace onex {
namespace {

std::span<const double> S(const std::vector<double>& v) {
  return std::span<const double>(v.data(), v.size());
}

Dataset TestDataset(size_t n = 10, size_t len = 24, uint64_t seed = 42) {
  GenOptions options;
  options.num_series = n;
  options.length = len;
  options.seed = seed;
  Dataset d = MakeItalyPower(options);
  MinMaxNormalize(&d);
  return d;
}

OnexBase BuildBase(Dataset d, double st = 0.2,
                   LengthSpec lengths = {4, 24, 4}) {
  OnexOptions options;
  options.st = st;
  options.lengths = lengths;
  auto result = OnexBase::Build(std::move(d), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::vector<double> Materialize(const Dataset& d, uint32_t p, uint32_t j,
                                uint32_t len) {
  const auto view = d[p].Subsequence(j, len);
  return std::vector<double>(view.begin(), view.end());
}

// ------------------------------------------------------------ Q1 exact.

TEST(QueryProcessorTest, InDatasetQueryFoundNearExactly) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto query = Materialize(base.dataset(), 2, 3, 8);
  auto result = processor.FindBestMatchOfLength(S(query), 8);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The query is literally in the base; ONEX searches only the best
  // group, so it must come back at (or extremely near) distance zero.
  EXPECT_LE(result.value().distance, 1e-9);
  EXPECT_EQ(result.value().ref.length, 8u);
}

TEST(QueryProcessorTest, UnindexedLengthIsNotFound) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  std::vector<double> query(7, 0.5);
  auto result = processor.FindBestMatchOfLength(S(query), 7);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kNotFound);
}

TEST(QueryProcessorTest, EmptyQueryRejected) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  std::vector<double> empty;
  EXPECT_FALSE(processor.FindBestMatchOfLength(S(empty), 8).ok());
  EXPECT_FALSE(processor.FindBestMatch(S(empty)).ok());
}

// -------------------------------------------------------------- Q1 any.

TEST(QueryProcessorTest, AnyLengthFindsInDatasetQuery) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto query = Materialize(base.dataset(), 5, 2, 12);
  auto result = processor.FindBestMatch(S(query));
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().distance, 1e-9);
}

TEST(QueryProcessorTest, AnyLengthHandlesQueryLengthNotIndexed) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  // Length 10 is not indexed (spec strides by 4); the search must still
  // produce a cross-length answer.
  std::vector<double> query(10);
  Rng rng(9);
  for (auto& x : query) x = rng.UniformDouble(0.0, 1.0);
  auto result = processor.FindBestMatch(S(query));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::isfinite(result.value().distance));
  EXPECT_NE(result.value().ref.length, 10u);
}

TEST(QueryProcessorTest, AnyAtLeastAsGoodAsExactWithoutEarlyStop) {
  QueryOptions qopts;
  qopts.stop_within_st_half = false;  // Full sweep over lengths.
  OnexBase base = BuildBase(TestDataset(12, 24, 5));
  QueryProcessor processor(&base, qopts);
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> query(12);
    for (auto& x : query) x = rng.UniformDouble(0.0, 1.0);
    auto any = processor.FindBestMatch(S(query));
    auto exact = processor.FindBestMatchOfLength(S(query), 12);
    ASSERT_TRUE(any.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(any.value().distance, exact.value().distance + 1e-9);
  }
}

// --------------------------------------------------- Optimization toggles.

// Every candidate lands in exactly one cascade stage, the LB stages are
// the representative prunes, and they prune nothing with the cascade off.
void ExpectCascadeAccounting(const QueryStats& stats,
                             const QueryOptions& options) {
  EXPECT_TRUE(stats.cascade.Consistent());
  EXPECT_GT(stats.cascade.candidates, 0u);
  EXPECT_EQ(stats.cascade.pruned_kim + stats.cascade.pruned_keogh,
            stats.reps_pruned);
  if (!options.use_cascade) {
    EXPECT_EQ(stats.cascade.pruned_kim, 0u);
    EXPECT_EQ(stats.cascade.pruned_keogh, 0u);
  }
}

TEST(QueryProcessorTest, CascadeTogglesPreserveTheAnswer) {
  OnexBase base = BuildBase(TestDataset(10, 24, 7));
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> query(16);
    for (auto& x : query) x = rng.UniformDouble(0.0, 1.0);

    QueryOptions all_on;
    QueryOptions all_off;
    all_off.use_cascade = false;
    all_off.use_median_order = false;
    all_off.use_value_targeted_scan = false;
    all_off.use_early_abandon = false;
    QueryOptions no_cascade;
    no_cascade.use_cascade = false;

    QueryProcessor p1(&base, all_on);
    QueryProcessor p2(&base, all_off);
    QueryProcessor p3(&base, no_cascade);
    QueryStats s1, s2, s3;
    auto r1 = p1.FindBestMatchOfLength(S(query), 16, &s1);
    auto r2 = p2.FindBestMatchOfLength(S(query), 16, &s2);
    auto r3 = p3.FindBestMatchOfLength(S(query), 16, &s3);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    ASSERT_TRUE(r3.ok());
    // Pruning is admissible and the scans are exhaustive within the
    // chosen group, so the distances must agree no matter the toggles.
    EXPECT_NEAR(r1.value().distance, r2.value().distance, 1e-9);
    EXPECT_NEAR(r1.value().distance, r3.value().distance, 1e-9);
    ExpectCascadeAccounting(s1, all_on);
    ExpectCascadeAccounting(s2, all_off);
    ExpectCascadeAccounting(s3, no_cascade);
  }
}

TEST(QueryProcessorTest, PruningReducesWork) {
  OnexBase base = BuildBase(TestDataset(12, 24, 19));
  std::vector<double> query(16);
  Rng rng(17);
  for (auto& x : query) x = rng.UniformDouble(0.0, 1.0);

  QueryProcessor pruned(&base);
  QueryStats pruned_stats;
  pruned.FindBestMatchOfLength(S(query), 16, &pruned_stats);
  QueryOptions off;
  off.use_cascade = false;
  off.use_early_abandon = false;
  QueryProcessor plain(&base, off);
  QueryStats plain_stats;
  plain.FindBestMatchOfLength(S(query), 16, &plain_stats);
  // Same candidates, but the pruned run must complete fewer full DTWs
  // (reps_compared counts non-pruned representative comparisons).
  EXPECT_LE(pruned_stats.reps_compared, plain_stats.reps_compared);
  EXPECT_GT(plain_stats.reps_compared, 0u);
  ExpectCascadeAccounting(pruned_stats, QueryOptions{});
  ExpectCascadeAccounting(plain_stats, off);
  EXPECT_EQ(pruned_stats.cascade.candidates, plain_stats.cascade.candidates);
}

// ------------------------------------------------- Accuracy vs oracle.

TEST(QueryProcessorTest, AccuracyCloseToStandardDtw) {
  Dataset d = TestDataset(10, 24, 23);
  LengthSpec lengths{6, 24, 6};
  OnexBase base = BuildBase(d, 0.2, lengths);
  StandardDtwSearch oracle(&base.dataset(), lengths);
  QueryProcessor processor(&base);

  Rng rng(29);
  double total_error = 0.0;
  const int kQueries = 10;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<double> query(12);
    for (auto& x : query) x = rng.UniformDouble(0.2, 0.8);
    auto onex_result = processor.FindBestMatch(S(query));
    const SearchResult oracle_result = oracle.FindBestMatch(S(query));
    ASSERT_TRUE(onex_result.ok());
    // ONEX can never beat the exhaustive oracle...
    EXPECT_GE(onex_result.value().distance, oracle_result.distance - 1e-9);
    total_error += onex_result.value().distance - oracle_result.distance;
  }
  // ...but the paper reports ~97-99% accuracy; at this scale the mean
  // absolute error in normalized DTW must stay small.
  EXPECT_LE(total_error / kQueries, 0.05);
}

// ------------------------------------------------------------- kSimilar.

TEST(QueryProcessorTest, KSimilarSortedAndBounded) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto query = Materialize(base.dataset(), 1, 0, 8);
  auto result = processor.FindKSimilar(S(query), 5, 8);
  ASSERT_TRUE(result.ok());
  const auto& matches = result.value();
  ASSERT_FALSE(matches.empty());
  EXPECT_LE(matches.size(), 5u);
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i].distance, matches[i - 1].distance);
  }
  // Best of the k equals the single best match of that length.
  auto single = processor.FindBestMatchOfLength(S(query), 8);
  ASSERT_TRUE(single.ok());
  EXPECT_NEAR(matches[0].distance, single.value().distance, 1e-9);
}

TEST(QueryProcessorTest, KSimilarAnyLength) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto query = Materialize(base.dataset(), 1, 0, 8);
  auto result = processor.FindKSimilar(S(query), 3);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().empty());
}

TEST(QueryProcessorTest, KSimilarBatchedRankingEqualsPerMemberRanking) {
  GenOptions gen;
  gen.num_series = 30;
  gen.length = 64;
  gen.seed = 5;
  Dataset data = MakeTwoPatterns(gen);
  MinMaxNormalize(&data);
  const OnexBase base = BuildBase(std::move(data), 0.3, {16, 64, 16});
  const QueryProcessor processor(&base);
  const double window_ratio = base.options().window_ratio;
  Rng rng(23);
  size_t multi_batch_groups = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const uint32_t n = trial % 2 == 0 ? 32 : 48;
    const auto query = Materialize(
        base.dataset(), static_cast<uint32_t>(rng.Uniform(30)),
        static_cast<uint32_t>(rng.Uniform(64 - n)), n);
    for (const size_t length : {size_t{n}, size_t{0}}) {
      for (const size_t k : {size_t{5}, size_t{1000}}) {
        QueryStats stats;
        auto got = processor.FindKSimilar(S(query), k, length, &stats);
        ASSERT_TRUE(got.ok());
        ASSERT_FALSE(got.value().empty());
        // Rank the chosen group member by member with the scalar kernel,
        // in stored order, and sort exactly as FindKSimilar does.
        const uint32_t group_id = got.value().front().group_id;
        const size_t len = got.value().front().ref.length;
        const LsiEntry& group = base.EntryFor(len)->groups[group_id];
        const double norm = 2.0 * static_cast<double>(std::max<size_t>(n, len));
        const DtwOptions options =
            DtwOptions::FromRatio(window_ratio, n, len);
        std::vector<QueryMatch> want;
        for (const LsiMember& member : group.members) {
          QueryMatch match;
          match.ref = member.ref;
          match.group_id = group_id;
          match.distance =
              DtwDistance(S(query), member.ref.View(base.dataset()), options) /
              norm;
          want.push_back(match);
        }
        std::sort(want.begin(), want.end(), MatchDistanceLess);
        if (want.size() > k) want.resize(k);
        ASSERT_EQ(got.value().size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          const QueryMatch& a = got.value()[i];
          EXPECT_EQ(a.ref, want[i].ref) << "row " << i;
          EXPECT_EQ(a.group_id, group_id);
          EXPECT_EQ(std::memcmp(&a.distance, &want[i].distance,
                                sizeof(double)),
                    0)
              << "row " << i << ": " << a.distance << " vs "
              << want[i].distance;
        }
        // Ranking counts each member once, as one completed DTW; the
        // representative search accounts for the rest of the cascade.
        EXPECT_EQ(stats.members_compared, group.members.size());
        EXPECT_EQ(stats.cascade.candidates,
                  stats.reps_compared + stats.reps_pruned +
                      stats.members_compared);
        EXPECT_TRUE(stats.cascade.Consistent());
        if (group.members.size() > kDtwBatchLanes) ++multi_batch_groups;
      }
    }
  }
  EXPECT_GT(multi_batch_groups, 0u);  // Partial tail batches were ranked.
}

TEST(QueryProcessorTest, KSimilarValidation) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  std::vector<double> query(8, 0.5);
  EXPECT_FALSE(processor.FindKSimilar(S(query), 0, 8).ok());
  EXPECT_FALSE(processor.FindKSimilar(S(query), 3, 7).ok());
}

// ------------------------------------------------------------- Seasonal.

TEST(QueryProcessorTest, SeasonalSimilarityFindsRecurringPattern) {
  // A series that repeats the same motif four times must exhibit
  // recurring similarity at the motif length.
  Dataset d("seasonal");
  std::vector<double> series;
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 8; ++i) {
      series.push_back(0.5 + 0.4 * std::sin(2.0 * M_PI * i / 8.0));
    }
  }
  d.Add(TimeSeries(series, 1));
  // A second series of unrelated noise.
  Rng rng(31);
  std::vector<double> noise(32);
  for (auto& x : noise) x = rng.UniformDouble(0.0, 1.0);
  d.Add(TimeSeries(noise, 2));

  OnexBase base = BuildBase(std::move(d), 0.2, LengthSpec{8, 8, 1});
  QueryProcessor processor(&base);
  auto result = processor.SeasonalSimilarity(0, 8);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().empty());
  size_t recurring = 0;
  for (const auto& group : result.value()) {
    EXPECT_GE(group.size(), 2u);
    for (const auto& ref : group) {
      EXPECT_EQ(ref.series, 0u);
      EXPECT_EQ(ref.length, 8u);
    }
    recurring += group.size();
  }
  // The four aligned motif occurrences (offsets 0, 8, 16, 24) are
  // near-identical, so at least those must recur together.
  EXPECT_GE(recurring, 4u);
}

TEST(QueryProcessorTest, SeasonalValidation) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  EXPECT_FALSE(processor.SeasonalSimilarity(999, 8).ok());
  EXPECT_FALSE(processor.SeasonalSimilarity(0, 7).ok());
}

TEST(QueryProcessorTest, DataDrivenSeasonalReturnsMultiMemberGroups) {
  OnexBase base = BuildBase(TestDataset(12, 24, 37));
  QueryProcessor processor(&base);
  auto result = processor.SimilarGroupsOfLength(8);
  ASSERT_TRUE(result.ok());
  for (const auto& group : result.value()) {
    EXPECT_GE(group.size(), 2u);
    for (const auto& ref : group) EXPECT_EQ(ref.length, 8u);
  }
  EXPECT_FALSE(processor.SimilarGroupsOfLength(7).ok());
}

// ------------------------------------ Batched best-so-far equivalence.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The Q1/Q1k paths candidate by candidate with the scalar kernels: each
// representative, in visit order, is tested by LB_Kim and LB_Keogh
// against the best-so-far as it stands and scored by an early-abandoning
// DTW at it; the chosen group's members likewise, without the bounds.
// `candidates` counts every representative and member visited.
class PerCandidateQ1 {
 public:
  PerCandidateQ1(const OnexBase& base, const QueryOptions& options)
      : base_(base), options_(options) {}

  uint64_t candidates = 0;

  QueryMatch BestOfLength(std::span<const double> query, size_t length) {
    double rep_d = kInf;
    return SearchEntry(query, *base_.EntryFor(length), kInf, &rep_d);
  }

  QueryMatch BestAnyLength(std::span<const double> query) {
    QueryMatch best;
    best.distance = kInf;
    for (size_t length : OrderedLengths(query.size())) {
      double rep_d = kInf;
      const QueryMatch match =
          SearchEntry(query, *base_.EntryFor(length), best.distance, &rep_d);
      if (match.distance < best.distance) best = match;
      if (options_.stop_within_st_half && rep_d <= base_.options().st / 2) {
        break;
      }
    }
    return best;
  }

  std::vector<QueryMatch> KSimilar(std::span<const double> query, size_t k,
                                   size_t length) {
    const GtiEntry* entry = nullptr;
    uint32_t group_id = 0;
    if (length != 0) {
      entry = base_.EntryFor(length);
      group_id = BestRepresentative(query, *entry, kInf).first;
    } else {
      double best_rep = kInf;
      for (size_t len : OrderedLengths(query.size())) {
        const GtiEntry* candidate = base_.EntryFor(len);
        const auto [gid, d] = BestRepresentative(query, *candidate, best_rep);
        if (d < best_rep) {
          best_rep = d;
          entry = candidate;
          group_id = gid;
        }
        if (options_.stop_within_st_half && d <= base_.options().st / 2) {
          break;
        }
      }
    }
    const LsiEntry& group = entry->groups[group_id];
    std::vector<QueryMatch> matches;
    for (const LsiMember& member : group.members) {
      ++candidates;
      QueryMatch match;
      match.ref = member.ref;
      match.group_id = group_id;
      match.distance = DtwDistance(query, member.ref.View(base_.dataset()),
                                   Dtw(query.size(), entry->length)) /
                       Norm(query.size(), entry->length);
      matches.push_back(match);
    }
    std::sort(matches.begin(), matches.end(), MatchDistanceLess);
    if (matches.size() > k) matches.resize(k);
    return matches;
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  static double Norm(size_t m, size_t len) {
    return 2.0 * static_cast<double>(std::max(m, len));
  }
  DtwOptions Dtw(size_t m, size_t len) const {
    return DtwOptions::FromRatio(base_.options().window_ratio, m, len);
  }

  // Exact length first, then decreasing below it, then increasing.
  std::vector<size_t> OrderedLengths(size_t m) const {
    std::vector<size_t> below, ordered;
    for (size_t len : base_.gti().Lengths()) {
      if (len == m) ordered.push_back(len);
      if (len < m) below.push_back(len);
    }
    ordered.insert(ordered.end(), below.rbegin(), below.rend());
    for (size_t len : base_.gti().Lengths()) {
      if (len > m) ordered.push_back(len);
    }
    return ordered;
  }

  // DTW at the threshold, or in full when abandoning is off or there is
  // no threshold yet.
  double Score(std::span<const double> query, std::span<const double> values,
               double prune_at, size_t len) const {
    const double norm = Norm(query.size(), len);
    const DtwOptions dtw = Dtw(query.size(), len);
    if (options_.use_early_abandon && prune_at < kInf) {
      return DtwEarlyAbandon(query, values, prune_at * norm, dtw) / norm;
    }
    return DtwDistance(query, values, dtw) / norm;
  }

  std::pair<uint32_t, double> BestRepresentative(
      std::span<const double> query, const GtiEntry& entry, double bsf) {
    const size_t m = query.size();
    const double norm = Norm(m, entry.length);
    uint32_t best_k = 0;
    double best_d = kInf;
    const auto consider = [&](uint32_t k) {
      ++candidates;
      const LsiEntry& group = entry.groups[k];
      const std::span<const double> rep =
          RepresentativeOf(group, base_.dataset());
      const double prune_at = std::min(bsf, best_d);
      if (options_.use_cascade && prune_at < kInf) {
        if (LbKim(query, rep) / norm > prune_at) return;
        if (m == entry.length &&
            LbKeoghEarlyAbandon(query, group.envelope, prune_at * norm) /
                    norm >
                prune_at) {
          return;
        }
      }
      const double d = Score(query, rep, prune_at, entry.length);
      if (d < best_d) {
        best_d = d;
        best_k = k;
      }
    };
    const size_t g = entry.NumGroups();
    if (options_.use_median_order && !entry.sum_sorted.empty()) {
      const size_t mid = g / 2;
      consider(entry.sum_sorted[mid].first);
      for (size_t offset = 1; offset <= g; ++offset) {
        if (mid >= offset) consider(entry.sum_sorted[mid - offset].first);
        if (mid + offset < g) consider(entry.sum_sorted[mid + offset].first);
      }
    } else {
      for (uint32_t k = 0; k < g; ++k) consider(k);
    }
    return {best_k, best_d};
  }

  QueryMatch SearchGroup(std::span<const double> query, const GtiEntry& entry,
                         uint32_t group_id, double rep_distance, double bsf) {
    const LsiEntry& group = entry.groups[group_id];
    QueryMatch best;
    best.distance = kInf;
    best.group_id = group_id;
    const auto consider = [&](size_t i) {
      ++candidates;
      const SubsequenceRef& ref = group.members[i].ref;
      const double d =
          Score(query, ref.View(base_.dataset()),
                std::min(bsf, best.distance), entry.length);
      if (d < best.distance) {
        best.distance = d;
        best.ref = ref;
      }
    };
    const size_t size = group.members.size();
    if (options_.use_value_targeted_scan && size != 0) {
      const size_t start = group.ClosestMemberTo(rep_distance);
      consider(start);
      for (size_t offset = 1; offset <= size; ++offset) {
        if (start >= offset) consider(start - offset);
        if (start + offset < size) consider(start + offset);
      }
    } else {
      for (size_t i = 0; i < size; ++i) consider(i);
    }
    return best;
  }

  QueryMatch SearchEntry(std::span<const double> query, const GtiEntry& entry,
                         double bsf, double* rep_d) {
    QueryMatch best;
    best.distance = kInf;
    if (options_.groups_to_search <= 1) {
      const auto [group_id, d] = BestRepresentative(query, entry, bsf);
      *rep_d = d;
      if (!std::isfinite(d)) return best;
      return SearchGroup(query, entry, group_id, d, bsf);
    }
    // Every representative in full, the best groups_to_search of them
    // chosen exactly as TopRepresentatives chooses them.
    std::vector<std::pair<uint32_t, double>> reps;
    for (uint32_t k = 0; k < entry.NumGroups(); ++k) {
      ++candidates;
      reps.push_back(
          {k, Score(query, RepresentativeOf(entry.groups[k], base_.dataset()), kInf,
                    entry.length)});
    }
    const size_t top = std::min(options_.groups_to_search, reps.size());
    std::partial_sort(reps.begin(), reps.begin() + static_cast<ptrdiff_t>(top),
                      reps.end(), [](const auto& a, const auto& b) {
                        return a.second < b.second;
                      });
    reps.resize(top);
    *rep_d = reps.empty() ? kInf : reps.front().second;
    for (const auto& [group_id, d] : reps) {
      const QueryMatch match = SearchGroup(query, entry, group_id, d,
                                           std::min(bsf, best.distance));
      if (match.distance < best.distance) best = match;
    }
    return best;
  }

  const OnexBase& base_;
  QueryOptions options_;
};

void ExpectSameMatch(const QueryMatch& got, const QueryMatch& want,
                     const std::string& where) {
  EXPECT_EQ(got.group_id, want.group_id) << where;
  EXPECT_EQ(got.ref, want.ref) << where;
  EXPECT_TRUE(SameBits(got.distance, want.distance))
      << where << ": " << got.distance << " vs " << want.distance;
}

TEST(QueryProcessorTest, BestMatchEqualsPerCandidateScan) {
  QueryStats coverage;
  size_t multi_batch_scans = 0;
  for (const double window_ratio : {-1.0, 0.1}) {
    for (const uint64_t seed : {uint64_t{3}, uint64_t{8}}) {
      GenOptions gen;
      gen.num_series = 24;
      gen.length = 48;
      gen.seed = seed;
      Dataset data = MakeTwoPatterns(gen);
      MinMaxNormalize(&data);
      OnexOptions build;
      build.st = 0.2;
      build.lengths = {16, 48, 16};
      build.window_ratio = window_ratio;
      auto built = OnexBase::Build(std::move(data), build);
      ASSERT_TRUE(built.ok());
      const OnexBase& base = built.value();
      Rng rng(seed + 100);
      for (int trial = 0; trial < 3; ++trial) {
        // An indexed length, one between indexed lengths, one above.
        const uint32_t n = trial == 0 ? 32 : (trial == 1 ? 24 : 40);
        const auto query = Materialize(
            base.dataset(), static_cast<uint32_t>(rng.Uniform(24)),
            static_cast<uint32_t>(rng.Uniform(48 - n)), n);
        std::vector<double> noisy = query;
        for (auto& x : noisy) x += rng.UniformDouble(-0.05, 0.05);
        for (unsigned bits = 0; bits < 16; ++bits) {
          QueryOptions options;
          options.use_cascade = (bits & 1) != 0;
          options.use_early_abandon = (bits & 2) != 0;
          options.use_median_order = (bits & 4) != 0;
          options.use_value_targeted_scan = (bits & 4) != 0;
          options.groups_to_search = (bits & 8) != 0 ? 3 : 1;
          const QueryProcessor processor(&base, options);
          const std::string where = "window " + std::to_string(window_ratio) +
                                    " seed " + std::to_string(seed) + " n " +
                                    std::to_string(n) + " options " +
                                    std::to_string(bits);
          const size_t length = n == 24 ? 16 : 32;

          PerCandidateQ1 want(base, options);
          QueryStats stats;
          auto got = processor.FindBestMatchOfLength(S(noisy), length, &stats);
          ASSERT_TRUE(got.ok()) << where;
          ExpectSameMatch(got.value(), want.BestOfLength(S(noisy), length),
                          where + " exact");
          EXPECT_EQ(stats.cascade.candidates, want.candidates) << where;
          EXPECT_TRUE(stats.cascade.Consistent()) << where;
          if (stats.reps_compared > kDtwBatchLanes) ++multi_batch_scans;
          coverage.Add(stats);

          want.candidates = 0;
          stats.Reset();
          got = processor.FindBestMatch(S(noisy), &stats);
          ASSERT_TRUE(got.ok()) << where;
          ExpectSameMatch(got.value(), want.BestAnyLength(S(noisy)),
                          where + " any");
          EXPECT_EQ(stats.cascade.candidates, want.candidates) << where;
          EXPECT_TRUE(stats.cascade.Consistent()) << where;
          coverage.Add(stats);

          for (const size_t k_length : {length, size_t{0}}) {
            want.candidates = 0;
            stats.Reset();
            auto k_got =
                processor.FindKSimilar(S(noisy), 4, k_length, &stats);
            ASSERT_TRUE(k_got.ok()) << where;
            const auto k_want = want.KSimilar(S(noisy), 4, k_length);
            ASSERT_EQ(k_got.value().size(), k_want.size()) << where;
            for (size_t i = 0; i < k_want.size(); ++i) {
              ExpectSameMatch(k_got.value()[i], k_want[i],
                              where + " k row " + std::to_string(i));
            }
            EXPECT_EQ(stats.cascade.candidates, want.candidates) << where;
            EXPECT_TRUE(stats.cascade.Consistent()) << where;
          }
        }
      }
    }
  }
  // The sweep pruned at both bounds, abandoned DTWs, and scored
  // representative scans of more than one batch.
  EXPECT_GT(coverage.cascade.pruned_kim, 0u);
  EXPECT_GT(coverage.cascade.pruned_keogh, 0u);
  EXPECT_GT(coverage.cascade.dtw_abandoned, 0u);
  EXPECT_GT(multi_batch_scans, 0u);
}

TEST(QueryProcessorTest, InterruptedBestMatchReturnsAScoredCandidate) {
  GenOptions gen;
  gen.num_series = 24;
  gen.length = 48;
  gen.seed = 3;
  Dataset data = MakeTwoPatterns(gen);
  MinMaxNormalize(&data);
  const OnexBase base = BuildBase(std::move(data), 0.4, {16, 48, 16});
  const QueryProcessor processor(&base);
  // A query whose chosen group takes more than one member batch.
  std::vector<double> query;
  uint64_t scored = 0;
  for (uint32_t p = 0; p < 24 * 16 && query.empty(); ++p) {
    auto candidate = Materialize(base.dataset(), p % 24, p / 24, 32);
    QueryStats stats;
    auto full = processor.FindBestMatchOfLength(S(candidate), 32, &stats);
    ASSERT_TRUE(full.ok());
    if (stats.members_compared > kDtwBatchLanes) {
      query = std::move(candidate);
      scored = stats.reps_compared + stats.members_compared;
    }
  }
  ASSERT_FALSE(query.empty());
  const double norm = 2.0 * 32;
  const DtwOptions dtw =
      DtwOptions::FromRatio(base.options().window_ratio, 32, 32);

  // A token cancelled up front stops the scan at the first batch that
  // consults it, once about check_every candidates are scored: sweeping
  // that period up to the uninterrupted scan's count lands the stop in
  // the representative scan and between member batches.
  size_t stopped_empty = 0, stopped_with_match = 0;
  for (size_t every = 1; every <= scored; ++every) {
    ExecContext ctx;
    ctx.cancel.Cancel();
    ctx.check_every = every;
    std::vector<QueryMatch> streamed;
    ctx.progress = [&](const ProgressEvent& event) {
      streamed.assign(event.matches().begin(), event.matches().end());
    };
    QueryStats stats;
    auto got = processor.FindBestMatchOfLength(S(query), 32, &stats, &ctx);
    ASSERT_EQ(got.status().code(), Status::Code::kCancelled);
    EXPECT_TRUE(stats.cascade.Consistent()) << "every=" << every;
    if (streamed.empty()) {
      ++stopped_empty;
      continue;
    }
    ++stopped_with_match;
    ASSERT_EQ(streamed.size(), 1u);
    const QueryMatch& match = streamed.front();
    const LsiEntry& group = base.EntryFor(32)->groups[match.group_id];
    EXPECT_TRUE(std::any_of(
        group.members.begin(), group.members.end(),
        [&](const LsiMember& member) { return member.ref == match.ref; }));
    const double full =
        DtwDistance(S(query), match.ref.View(base.dataset()), dtw) / norm;
    EXPECT_TRUE(SameBits(match.distance, full)) << "every=" << every;
  }
  EXPECT_GT(stopped_empty, 0u);
  EXPECT_GT(stopped_with_match, 0u);
}

// ----------------------------------------------------------------- Stats.

TEST(QueryProcessorTest, PerCallStatsReportEachCallsWork) {
  OnexBase base = BuildBase(TestDataset());
  const QueryProcessor processor(&base);  // Query methods are const.
  std::vector<double> query(8, 0.5);
  QueryStats call;
  auto result = processor.FindBestMatchOfLength(S(query), 8, &call);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(call.reps_compared + call.reps_pruned, 0u);
  EXPECT_GT(call.members_compared, 0u);
  EXPECT_EQ(call.lengths_scanned, 1u);
  EXPECT_FALSE(call.ToString().empty());
  // A second identical call returns fresh counters, not a running sum.
  QueryStats second;
  (void)processor.FindBestMatchOfLength(S(query), 8, &second);
  EXPECT_EQ(second.lengths_scanned, call.lengths_scanned);
  EXPECT_EQ(second.members_compared, call.members_compared);
  // Callers wanting totals aggregate explicitly.
  QueryStats total;
  total.Add(call);
  total.Add(second);
  EXPECT_EQ(total.members_compared, 2 * call.members_compared);
  total.Reset();
  EXPECT_EQ(total.members_compared, 0u);
}

TEST(QueryProcessorTest, NullStatsOutParamIsAccepted) {
  OnexBase base = BuildBase(TestDataset());
  const QueryProcessor processor(&base);
  std::vector<double> query(8, 0.5);
  // Counters are simply discarded; the result is unaffected.
  auto with = processor.FindBestMatchOfLength(S(query), 8);
  QueryStats call;
  auto without = processor.FindBestMatchOfLength(S(query), 8, &call);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_DOUBLE_EQ(with.value().distance, without.value().distance);
}

}  // namespace
}  // namespace onex
