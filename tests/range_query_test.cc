// Tests for the Q1 range form (FindAllWithin): completeness and
// soundness against a brute-force range scan, the Lemma-2 wholesale
// admission fast path, and parameter validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "core/exec_context.h"
#include "core/onex_base.h"
#include "core/query_processor.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "distance/dtw.h"
#include "distance/euclidean.h"
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

OnexBase BuildBase(Dataset d, double st = 0.2) {
  OnexOptions options;
  options.st = st;
  options.lengths = {8, 24, 8};
  auto built = OnexBase::Build(std::move(d), options);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

uint64_t KeyOf(const SubsequenceRef& ref) {
  return (static_cast<uint64_t>(ref.series) << 40) |
         (static_cast<uint64_t>(ref.start) << 16) | ref.length;
}

// Brute-force range scan over one length in the same metric
// (unconstrained DTW, as FindAllWithin specifies).
std::set<uint64_t> BruteRange(const OnexBase& base,
                              std::span<const double> query, double st,
                              size_t length) {
  std::set<uint64_t> hits;
  const Dataset& d = base.dataset();
  const double norm =
      2.0 * static_cast<double>(std::max(query.size(), length));
  const DtwOptions options{-1};
  for (uint32_t p = 0; p < d.size(); ++p) {
    if (d[p].length() < length) continue;
    for (uint32_t j = 0; j + length <= d[p].length(); ++j) {
      const double dist =
          DtwDistance(query, d[p].Subsequence(j, length), options) / norm;
      if (dist <= st) {
        hits.insert(KeyOf({p, j, static_cast<uint32_t>(length)}));
      }
    }
  }
  return hits;
}

TEST(RangeQueryTest, ExactDistancesMatchBruteForceScan) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> query(16);
    for (auto& x : query) x = rng.UniformDouble(0.2, 0.8);
    const double st = 0.05 + 0.03 * trial;
    auto got = processor.FindAllWithin(S(query), st, 16,
                                       /*exact_distances=*/true);
    ASSERT_TRUE(got.ok());
    const auto want = BruteRange(base, S(query), st, 16);
    std::set<uint64_t> got_keys;
    for (const auto& match : got.value()) {
      EXPECT_LE(match.distance, st + 1e-9);
      EXPECT_EQ(match.ref.length, 16u);
      got_keys.insert(KeyOf(match.ref));
    }
    EXPECT_EQ(got_keys, want) << "st=" << st;
  }
}

TEST(RangeQueryTest, ResultsSortedByDistance) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto view = base.dataset()[0].Subsequence(0, 16);
  std::vector<double> query(view.begin(), view.end());
  auto result = processor.FindAllWithin(S(query), 0.15, 16, true);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result.value().size(); ++i) {
    EXPECT_GE(result.value()[i].distance,
              result.value()[i - 1].distance);
  }
}

TEST(RangeQueryTest, Lemma2FastPathFiresAndIsSound) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  // Query group representatives directly: any group whose stored ED
  // radius is within st/2 must be admitted wholesale for its own
  // representative (DTW(q, rep) = 0 <= st/2).
  const GtiEntry* entry = base.EntryFor(16);
  ASSERT_NE(entry, nullptr);
  ASSERT_GT(entry->NumGroups(), 0u);
  const double st = base.options().st;
  QueryStats total;
  uint64_t expected_admissions = 0;
  for (const auto& group : entry->groups) {
    const double radius =
        group.members.empty() ? 0.0 : group.members.back().ed_to_rep;
    QueryStats call;
    auto result = processor.FindAllWithin(
        RepresentativeOf(group, base.dataset()), st, 16,
        /*exact_distances=*/true, &call);
    ASSERT_TRUE(result.ok());
    total.Add(call);
    if (radius <= st / 2.0) expected_admissions += group.members.size();
    // Soundness: every returned member is genuinely within st.
    for (const auto& match : result.value()) {
      EXPECT_LE(match.distance, st + 1e-9);
    }
  }
  // Most groups keep their construction radius, so the fast path must
  // have fired at least for those.
  EXPECT_GE(total.members_admitted_by_lemma2, expected_admissions);
  EXPECT_GT(total.members_admitted_by_lemma2, 0u);
}

TEST(RangeQueryTest, FastPathReportsUpperBoundWithoutExactFlag) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const GtiEntry* entry = base.EntryFor(8);
  const double st = base.options().st;
  // Find a group whose stored radius still satisfies the fast-path
  // premise (representative drift can push some beyond st/2).
  const LsiEntry* eligible = nullptr;
  for (const auto& group : entry->groups) {
    if (!group.members.empty() &&
        group.members.back().ed_to_rep <= st / 2.0) {
      eligible = &group;
      break;
    }
  }
  if (eligible == nullptr) GTEST_SKIP() << "no fast-path-eligible group";
  auto result =
      processor.FindAllWithin(RepresentativeOf(*eligible, base.dataset()), st,
                              8, false);
  ASSERT_TRUE(result.ok());
  // Fast-path members carry distance == st (the Lemma-2 upper bound)
  // and are flagged so callers can tell bounds from real distances.
  bool saw_upper_bound = false;
  for (const auto& match : result.value()) {
    EXPECT_LE(match.distance, st + 1e-12);
    if (match.distance_is_upper_bound) {
      EXPECT_EQ(match.distance, st);
      saw_upper_bound = true;
    }
  }
  EXPECT_TRUE(saw_upper_bound);
}

TEST(RangeQueryTest, ExactDistancesNeverFlaggedAsUpperBounds) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto view = base.dataset()[1].Subsequence(0, 16);
  std::vector<double> query(view.begin(), view.end());
  auto result = processor.FindAllWithin(S(query), base.options().st, 0,
                                        /*exact_distances=*/true);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().empty());
  for (const auto& match : result.value()) {
    EXPECT_FALSE(match.distance_is_upper_bound);
  }
}

TEST(RangeQueryTest, AllLengthsMode) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto view = base.dataset()[2].Subsequence(0, 16);
  std::vector<double> query(view.begin(), view.end());
  auto result = processor.FindAllWithin(S(query), 0.1, 0, true);
  ASSERT_TRUE(result.ok());
  std::set<size_t> lengths_seen;
  for (const auto& match : result.value()) {
    lengths_seen.insert(match.ref.length);
  }
  EXPECT_GE(lengths_seen.size(), 2u);  // Cross-length hits exist.
}

TEST(RangeQueryTest, TinyThresholdFindsAtMostTheQueryItself) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  const auto view = base.dataset()[4].Subsequence(3, 16);
  std::vector<double> query(view.begin(), view.end());
  auto result = processor.FindAllWithin(S(query), 1e-6, 16, true);
  ASSERT_TRUE(result.ok());
  // The query's own subsequence is a guaranteed hit at distance 0.
  ASSERT_FALSE(result.value().empty());
  EXPECT_LE(result.value()[0].distance, 1e-9);
}

// ------------------------------------------- batched-scan equivalence

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct ReferenceRange {
  std::vector<QueryMatch> matches;
  QueryStats stats;
};

// FindAllWithin candidate by candidate with the scalar kernels: per
// length, per group in stored order, the representative's DTW picks
// Lemma-2 admission or an early-abandoning member scan. Matches are
// emitted in that order and then sorted as FindAllWithin sorts them
// (std::sort is not stable, so equal input order is what makes equal
// output order).
ReferenceRange PerCandidateRange(const OnexBase& base,
                                 std::span<const double> query, double st,
                                 size_t length, bool exact_distances) {
  ReferenceRange out;
  QueryStats& s = out.stats;
  const std::vector<size_t> lengths =
      length != 0 ? std::vector<size_t>{length} : base.gti().Lengths();
  const DtwOptions options{-1};
  for (size_t len : lengths) {
    const GtiEntry* entry = base.EntryFor(len);
    ++s.lengths_scanned;
    const double norm = 2.0 * static_cast<double>(std::max(query.size(), len));
    for (uint32_t k = 0; k < entry->NumGroups(); ++k) {
      const LsiEntry& group = entry->groups[k];
      const std::span<const double> rep =
          RepresentativeOf(group, base.dataset());
      const double rep_d = DtwDistance(query, rep, options) / norm;
      // Counting rule: every representative is compared; one that the
      // ED upper bound settles (equal lengths only) skips the cascade,
      // the others run a DTW that may abandon just past st/2.
      ++s.reps_compared;
      const bool settled =
          query.size() == len &&
          EuclideanDistance(query, rep) / norm <=
              st / 2.0;
      if (!settled) {
        ++s.cascade.candidates;
        const double bounded = DtwEarlyAbandon(
            query, rep, st / 2.0 * (1.0 + 1e-9) * norm,
            options);
        ++(std::isinf(bounded) ? s.cascade.dtw_abandoned
                               : s.cascade.dtw_completed);
      }
      const double radius =
          group.members.empty() ? 0.0 : group.members.back().ed_to_rep;
      const bool admitted = rep_d <= st / 2.0 && radius <= st / 2.0;
      if (admitted) s.members_admitted_by_lemma2 += group.members.size();
      for (const LsiMember& member : group.members) {
        const auto values = member.ref.View(base.dataset());
        QueryMatch match;
        match.ref = member.ref;
        match.group_id = k;
        if (admitted && !exact_distances) {
          match.distance = st;
          match.distance_is_upper_bound = true;
        } else if (admitted) {
          ++s.cascade.candidates;
          ++s.cascade.dtw_completed;
          match.distance = DtwDistance(query, values, options) / norm;
        } else {
          ++s.members_compared;
          ++s.cascade.candidates;
          match.distance =
              DtwEarlyAbandon(query, values, st * norm, options) / norm;
          ++(std::isinf(match.distance) ? s.cascade.dtw_abandoned
                                        : s.cascade.dtw_completed);
          if (!(match.distance <= st)) continue;
        }
        out.matches.push_back(match);
      }
    }
  }
  std::sort(out.matches.begin(), out.matches.end(), MatchDistanceLess);
  return out;
}

void ExpectSameStats(const QueryStats& got, const QueryStats& want) {
  EXPECT_EQ(got.lengths_scanned, want.lengths_scanned);
  EXPECT_EQ(got.reps_compared, want.reps_compared);
  EXPECT_EQ(got.reps_pruned, want.reps_pruned);
  EXPECT_EQ(got.members_compared, want.members_compared);
  EXPECT_EQ(got.members_admitted_by_lemma2, want.members_admitted_by_lemma2);
  EXPECT_EQ(got.cascade.candidates, want.cascade.candidates);
  EXPECT_EQ(got.cascade.pruned_kim, want.cascade.pruned_kim);
  EXPECT_EQ(got.cascade.pruned_keogh, want.cascade.pruned_keogh);
  EXPECT_EQ(got.cascade.dtw_abandoned, want.cascade.dtw_abandoned);
  EXPECT_EQ(got.cascade.dtw_completed, want.cascade.dtw_completed);
  EXPECT_TRUE(got.cascade.Consistent());
}

TEST(RangeQueryTest, BatchedScanEqualsPerCandidateScan) {
  GenOptions gen;
  gen.num_series = 30;
  gen.length = 64;
  gen.seed = 5;
  Dataset data = MakeTwoPatterns(gen);
  MinMaxNormalize(&data);
  OnexOptions options;
  options.st = 0.1;
  options.lengths = {16, 64, 16};
  auto built = OnexBase::Build(std::move(data), options);
  ASSERT_TRUE(built.ok());
  const OnexBase& base = built.value();
  QueryProcessor processor(&base);

  Rng rng(17);
  QueryStats coverage;
  for (int trial = 0; trial < 6; ++trial) {
    // In-dataset windows, slightly perturbed, at an indexed length and a
    // length between the indexed ones.
    const size_t n = trial % 3 == 2 ? 40 : 32;
    const auto view = base.dataset()[rng.Uniform(30)].Subsequence(
        static_cast<uint32_t>(rng.Uniform(64 - n)), static_cast<uint32_t>(n));
    std::vector<double> query(view.begin(), view.end());
    for (auto& x : query) x += rng.UniformDouble(-0.02, 0.02);
    for (const double st : {0.01, 0.03, 0.1}) {
      for (const size_t length : {size_t{32}, size_t{0}}) {
        for (const bool exact : {false, true}) {
          QueryStats stats;
          auto got = processor.FindAllWithin(S(query), st, length, exact,
                                             &stats);
          ASSERT_TRUE(got.ok());
          const ReferenceRange want =
              PerCandidateRange(base, S(query), st, length, exact);
          ASSERT_EQ(got.value().size(), want.matches.size());
          for (size_t i = 0; i < want.matches.size(); ++i) {
            const QueryMatch& a = got.value()[i];
            const QueryMatch& b = want.matches[i];
            EXPECT_EQ(KeyOf(a.ref), KeyOf(b.ref)) << "row " << i;
            EXPECT_EQ(a.group_id, b.group_id) << "row " << i;
            EXPECT_TRUE(SameBits(a.distance, b.distance)) << "row " << i;
            EXPECT_EQ(a.distance_is_upper_bound, b.distance_is_upper_bound);
          }
          ExpectSameStats(stats, want.stats);
          coverage.Add(stats);
        }
      }
    }
  }
  // The sweep exercised both admission paths and early abandoning.
  EXPECT_GT(coverage.members_admitted_by_lemma2, 0u);
  EXPECT_GT(coverage.members_compared, 0u);
  EXPECT_GT(coverage.cascade.dtw_abandoned, 0u);
}

// Sizes of the groups of `len` that Lemma 2 does not admit for `query`,
// in scan order: the groups whose members go to the range kernel.
std::vector<size_t> ScannedGroupSizes(const OnexBase& base,
                                      std::span<const double> query,
                                      double st, size_t len) {
  std::vector<size_t> sizes;
  const double norm = 2.0 * static_cast<double>(std::max(query.size(), len));
  for (const LsiEntry& group : base.EntryFor(len)->groups) {
    const double rep_d =
        DtwDistance(query, RepresentativeOf(group, base.dataset()),
                    DtwOptions{-1}) /
        norm;
    const double radius =
        group.members.empty() ? 0.0 : group.members.back().ed_to_rep;
    if (!(rep_d <= st / 2.0 && radius <= st / 2.0)) {
      sizes.push_back(group.members.size());
    }
  }
  return sizes;
}

// A coarse base (st 0.4): at length 32 it holds groups of one to over a
// hundred members, many of 3 to 17. Range thresholds of 0.1 to 0.25
// scan the groups whose radius exceeds st/2 member by member, so the
// kernel's batches of 16 span several groups, with the groups Lemma 2
// admits between them in scan order.
OnexBase CoarseBase() {
  GenOptions gen;
  gen.num_series = 40;
  gen.length = 64;
  gen.seed = 11;
  Dataset data = MakeTwoPatterns(gen);
  MinMaxNormalize(&data);
  OnexOptions options;
  options.st = 0.4;
  options.lengths = {32, 32, 16};
  auto built = OnexBase::Build(std::move(data), options);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

TEST(RangeQueryTest, BatchesThatCrossGroupBoundariesKeepScanOrder) {
  const OnexBase base = CoarseBase();
  QueryProcessor processor(&base);

  Rng rng(23);
  size_t crossing_queries = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const auto view = base.dataset()[rng.Uniform(40)].Subsequence(
        static_cast<uint32_t>(rng.Uniform(32)), 32);
    std::vector<double> query(view.begin(), view.end());
    for (auto& x : query) x += rng.UniformDouble(-0.02, 0.02);
    const double st = 0.1 + 0.05 * (trial % 4);
    const auto sizes = ScannedGroupSizes(base, S(query), st, 32);
    // A batch crosses a boundary wherever a scanned group other than the
    // first starts off a multiple of 16; count the small groups (3 to 17
    // members) such batches mix.
    size_t offset = 0, small = 0;
    bool crosses = false;
    for (const size_t size : sizes) {
      if (offset % kDtwBatchLanes != 0) crosses = true;
      if (size >= 3 && size <= 17) ++small;
      offset += size;
    }
    if (crosses && small >= 2) ++crossing_queries;

    QueryStats stats;
    auto got = processor.FindAllWithin(S(query), st, 32,
                                       /*exact_distances=*/false, &stats);
    ASSERT_TRUE(got.ok());
    const ReferenceRange want =
        PerCandidateRange(base, S(query), st, 32, /*exact_distances=*/false);
    ASSERT_EQ(got.value().size(), want.matches.size());
    std::set<uint32_t> groups;
    for (size_t i = 0; i < want.matches.size(); ++i) {
      const QueryMatch& a = got.value()[i];
      const QueryMatch& b = want.matches[i];
      EXPECT_EQ(KeyOf(a.ref), KeyOf(b.ref)) << "row " << i;
      EXPECT_EQ(a.group_id, b.group_id) << "row " << i;
      EXPECT_TRUE(SameBits(a.distance, b.distance)) << "row " << i;
      EXPECT_EQ(a.distance_is_upper_bound, b.distance_is_upper_bound);
      groups.insert(a.group_id);
    }
    EXPECT_GT(groups.size(), 1u);
    ExpectSameStats(stats, want.stats);
  }
  EXPECT_GT(crossing_queries, 0u);
}

TEST(RangeQueryTest, InterruptedScanReturnsASubsetOfTheAnswer) {
  const OnexBase base = CoarseBase();
  QueryProcessor processor(&base);
  const auto view = base.dataset()[3].Subsequence(5, 32);
  const std::vector<double> query(view.begin(), view.end());
  const double st = 0.2;
  auto full = processor.FindAllWithin(S(query), st, 32);
  ASSERT_TRUE(full.ok());
  std::map<uint64_t, QueryMatch> answer;
  for (const QueryMatch& match : full.value()) {
    answer[KeyOf(match.ref)] = match;
  }

  // A token cancelled up front stops the scan at the first check that
  // consults it, after about check_every candidates: sweeping that
  // period lands the stop between groups and before member batches,
  // with members of a batch already queued.
  size_t partial_groups = 0;
  for (size_t every = 1; every <= 400; every += 3) {
    ExecContext ctx;
    ctx.cancel.Cancel();
    ctx.check_every = every;
    std::vector<QueryMatch> streamed;
    ctx.progress = [&](const ProgressEvent& event) {
      streamed.insert(streamed.end(), event.matches().begin(),
                      event.matches().end());
    };
    QueryStats stats;
    auto got = processor.FindAllWithin(S(query), st, 32, false, &stats, &ctx);
    ASSERT_EQ(got.status().code(), Status::Code::kCancelled);
    EXPECT_TRUE(stats.cascade.Consistent());
    ASSERT_LT(streamed.size(), answer.size()) << "every=" << every;
    std::set<uint64_t> seen;
    std::map<uint32_t, size_t> per_group;
    for (const QueryMatch& match : streamed) {
      const auto it = answer.find(KeyOf(match.ref));
      ASSERT_NE(it, answer.end()) << "every=" << every;
      EXPECT_TRUE(SameBits(match.distance, it->second.distance));
      EXPECT_EQ(match.group_id, it->second.group_id);
      EXPECT_EQ(match.distance_is_upper_bound,
                it->second.distance_is_upper_bound);
      EXPECT_TRUE(seen.insert(KeyOf(match.ref)).second) << "duplicate";
      ++per_group[match.group_id];
    }
    // A group cut by the stop: some of its matches confirmed, the rest
    // queued or never reached, and not reported.
    for (const auto& [group_id, count] : per_group) {
      size_t total = 0;
      for (const auto& [key, match] : answer) {
        total += match.group_id == group_id;
      }
      if (count < total) ++partial_groups;
    }
  }
  EXPECT_GT(partial_groups, 0u);
}

TEST(RangeQueryTest, Validation) {
  OnexBase base = BuildBase(TestDataset());
  QueryProcessor processor(&base);
  std::vector<double> query(8, 0.5), empty;
  EXPECT_FALSE(processor.FindAllWithin(S(empty), 0.1, 8).ok());
  EXPECT_FALSE(processor.FindAllWithin(S(query), -0.1, 8).ok());
  EXPECT_FALSE(processor.FindAllWithin(S(query), 0.1, 7).ok());
}

}  // namespace
}  // namespace onex
