// Tests for the frozen index structures (paper Sec. 4.3): LSI member
// ordering and lookup, GTI's sum-sorted array, SP-Space markers and
// memory accounting, and the GlobalTimeIndex directory. The GTI keeps
// no Dc matrix (Def. 10), so the tests compute representative distances
// themselves, and check BuildGtiEntry bit for bit against a reference
// that keeps the full matrix and sweeps it with Kruskal, and the
// lane-batched pairwise pass against the scalar loop it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/group_builder.h"
#include "core/gti.h"
#include "core/onex_base.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "distance/euclidean.h"
#include "util/rng.h"
#include "util/union_find.h"

namespace onex {
namespace {

Dataset TestDataset() {
  GenOptions options;
  options.num_series = 10;
  options.length = 24;
  options.seed = 42;
  Dataset d = MakeItalyPower(options);
  MinMaxNormalize(&d);
  return d;
}

GtiEntry BuildEntry(const Dataset& d, size_t length, double st = 0.2) {
  Rng rng(1);
  return BuildGtiEntry(BuildGroupsForLength(d, length, st, &rng), st, 0.1,
                       true);
}

/// Dc(k, l) (Def. 10): normalized ED between two representatives.
double RepDistance(const Dataset& d, const GtiEntry& entry, size_t k,
                   size_t l) {
  return NormalizedEuclidean(RepresentativeOf(entry.groups[k], d),
                             RepresentativeOf(entry.groups[l], d));
}

TEST(GtiEntryTest, MembersSortedByEdToRep) {
  Dataset d = TestDataset();
  const GtiEntry entry = BuildEntry(d, 8);
  ASSERT_GT(entry.NumGroups(), 0u);
  for (const auto& group : entry.groups) {
    for (size_t i = 1; i < group.members.size(); ++i) {
      EXPECT_LE(group.members[i - 1].ed_to_rep, group.members[i].ed_to_rep);
    }
  }
}

TEST(GtiEntryTest, StoredEdMatchesRecomputation) {
  Dataset d = TestDataset();
  const GtiEntry entry = BuildEntry(d, 8);
  for (const auto& group : entry.groups) {
    const std::span<const double> rep = RepresentativeOf(group, d);
    for (const auto& member : group.members) {
      EXPECT_NEAR(member.ed_to_rep,
                  NormalizedEuclidean(member.ref.View(d), rep), 1e-12);
    }
  }
}

TEST(GtiEntryTest, RepresentativeDistancesSymmetricAndSeparated) {
  Dataset d = TestDataset();
  const GtiEntry entry = BuildEntry(d, 8);
  const size_t g = entry.NumGroups();
  for (size_t k = 0; k < g; ++k) {
    EXPECT_DOUBLE_EQ(RepDistance(d, entry, k, k), 0.0);
    for (size_t l = 0; l < g; ++l) {
      EXPECT_DOUBLE_EQ(RepDistance(d, entry, k, l), RepDistance(d, entry, l, k));
      if (k != l) {
        // Distinct groups' representatives are separated by construction.
        EXPECT_GT(RepDistance(d, entry, k, l), 0.0);
      }
    }
  }
}

TEST(GtiEntryTest, SumSortedAscendingAndComplete) {
  Dataset d = TestDataset();
  const GtiEntry entry = BuildEntry(d, 8);
  const size_t g = entry.NumGroups();
  ASSERT_EQ(entry.sum_sorted.size(), g);
  std::vector<bool> seen(g, false);
  for (size_t i = 0; i < g; ++i) {
    const auto [k, sum] = entry.sum_sorted[i];
    EXPECT_LT(k, g);
    seen[k] = true;
    if (i > 0) EXPECT_GE(sum, entry.sum_sorted[i - 1].second);
    // Sum matches its Dc row.
    double expected = 0.0;
    for (size_t l = 0; l < g; ++l) expected += RepDistance(d, entry, k, l);
    EXPECT_NEAR(sum, expected, 1e-9);
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(GtiEntryTest, EnvelopesSizedToLength) {
  Dataset d = TestDataset();
  const GtiEntry entry = BuildEntry(d, 8);
  for (const auto& group : entry.groups) {
    EXPECT_EQ(group.envelope.size(), entry.length);
    // Envelope brackets its representative.
    const std::span<const double> rep = RepresentativeOf(group, d);
    for (size_t i = 0; i < entry.length; ++i) {
      EXPECT_LE(group.envelope.lower[i], rep[i] + 1e-12);
      EXPECT_GE(group.envelope.upper[i], rep[i] - 1e-12);
    }
  }
}

TEST(GtiEntryTest, MergeThresholdsOrdered) {
  Dataset d = TestDataset();
  const GtiEntry entry = BuildEntry(d, 8);
  EXPECT_GE(entry.st_half, 0.2);  // At least the base ST.
  EXPECT_GE(entry.st_final, entry.st_half);
}

TEST(GtiEntryTest, MemoryAccountingPositive) {
  Dataset d = TestDataset();
  const GtiEntry entry = BuildEntry(d, 8);
  EXPECT_GT(entry.GtiMemoryBytes(), 0u);
  EXPECT_GT(entry.LsiMemoryBytes(), 0u);
  // LSI must dominate for member-heavy bases (it stores per-sequence
  // records); sanity-check scale rather than exact numbers.
  size_t members = 0;
  for (const auto& g : entry.groups) members += g.size();
  EXPECT_GE(entry.LsiMemoryBytes(), members * sizeof(LsiMember));
}

TEST(GtiEntryTest, EmptyGroupsYieldEmptyEntry) {
  Dataset d = TestDataset();
  GtiEntry entry = BuildGtiEntry(GroupAssigner(d, 8, 0.2, {}), 0.2, 0.1, true);
  EXPECT_EQ(entry.NumGroups(), 0u);
  EXPECT_EQ(entry.length, 0u);
}

TEST(GtiEntryTest, GtiBytesGrowLinearlyInGroups) {
  // stats().gti_bytes must stay O(g) per length: a per-pair structure
  // (g^2 doubles) kept after the build would blow this bound.
  GenOptions gen;
  gen.num_series = 12;
  gen.length = 48;
  gen.seed = 3;
  Dataset d = MakeRandomWalk(gen);
  MinMaxNormalize(&d);
  OnexOptions options;
  options.st = 0.05;
  options.lengths = {16, 48, 16};
  auto built = OnexBase::Build(std::move(d), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const OnexBase& base = built.value();
  size_t max_groups = 0;
  for (const auto& [length, entry] : base.gti().entries()) {
    max_groups = std::max(max_groups, entry.NumGroups());
  }
  ASSERT_GE(max_groups, 100u);  // Large enough for g^2 to show.
  const size_t per_group = sizeof(std::pair<uint32_t, double>);
  const size_t per_length = 2 * sizeof(double);
  EXPECT_LE(base.stats().gti_bytes,
            per_group * base.stats().num_representatives +
                per_length * base.stats().num_lengths);
  EXPECT_GE(base.stats().gti_bytes,
            per_group * base.stats().num_representatives);
}

// ---------------------------------------- Equivalence with the full Dc.

/// What BuildGtiEntry derives from Dc.
struct Derived {
  std::vector<std::pair<uint32_t, double>> sum_sorted;
  double st_half = 0.0;
  double st_final = 0.0;
};

/// Reference derivation over the full g x g Dc matrix: row sums in
/// ascending column order, sorted by sum, then a Kruskal sweep over all
/// g(g-1)/2 edges for the markers.
Derived ReferenceDerivation(const Dataset& d, const GtiEntry& entry,
                            double st, bool compute_sp_space) {
  Derived out;
  const size_t g = entry.NumGroups();
  if (g == 0) return out;  // BuildGtiEntry returns an empty entry.
  std::vector<double> dc(g * g, 0.0);
  for (size_t k = 0; k < g; ++k) {
    for (size_t l = k + 1; l < g; ++l) {
      dc[k * g + l] = dc[l * g + k] = RepDistance(d, entry, k, l);
    }
  }
  for (size_t k = 0; k < g; ++k) {
    double sum = 0.0;
    for (size_t l = 0; l < g; ++l) sum += dc[k * g + l];
    out.sum_sorted.push_back({static_cast<uint32_t>(k), sum});
  }
  std::sort(out.sum_sorted.begin(), out.sum_sorted.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  out.st_half = out.st_final = st;
  if (!compute_sp_space || g == 1) return out;
  std::vector<std::pair<double, std::pair<size_t, size_t>>> edges;
  for (size_t k = 0; k < g; ++k) {
    for (size_t l = k + 1; l < g; ++l) edges.push_back({dc[k * g + l], {k, l}});
  }
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  UnionFind uf(g);
  bool half_found = false;
  for (const auto& [w, pair] : edges) {
    if (!uf.Union(pair.first, pair.second)) continue;
    if (!half_found && uf.components() <= (g + 1) / 2) {
      out.st_half = st + w;
      half_found = true;
    }
    if (uf.components() == 1) {
      out.st_final = st + w;
      break;
    }
  }
  return out;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectMatchesReference(const Dataset& d, const GtiEntry& entry,
                            double st, bool compute_sp_space) {
  const Derived want = ReferenceDerivation(d, entry, st, compute_sp_space);
  ASSERT_EQ(entry.sum_sorted.size(), want.sum_sorted.size());
  for (size_t i = 0; i < want.sum_sorted.size(); ++i) {
    EXPECT_EQ(entry.sum_sorted[i].first, want.sum_sorted[i].first) << i;
    EXPECT_TRUE(BitEqual(entry.sum_sorted[i].second, want.sum_sorted[i].second))
        << i;
  }
  EXPECT_TRUE(BitEqual(entry.st_half, want.st_half))
      << entry.st_half << " vs " << want.st_half;
  EXPECT_TRUE(BitEqual(entry.st_final, want.st_final))
      << entry.st_final << " vs " << want.st_final;
}

/// One group per listed series, each holding that whole series.
GroupAssigner WholeSeriesGroups(const Dataset& d,
                                const std::vector<uint32_t>& series) {
  const auto length = static_cast<uint32_t>(d[0].length());
  std::vector<SubsequenceRef> refs;
  for (uint32_t p : series) refs.push_back({p, 0, length});
  GroupAssigner groups(d, length, 0.2, std::move(refs));
  for (size_t i = 0; i < series.size(); ++i) groups.FoundGroup(1);
  return groups;
}

TEST(GtiEquivalenceTest, RandomBasesMatchFullMatrixKruskal) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (const char* kind : {"italy", "walk"}) {
      GenOptions gen;
      gen.num_series = 8;
      gen.length = 32;
      gen.seed = seed;
      Dataset d = std::string(kind) == "italy" ? MakeItalyPower(gen)
                                               : MakeRandomWalk(gen);
      MinMaxNormalize(&d);
      for (double st : {0.1, 0.3}) {
        for (size_t length : {4u, 12u, 32u}) {
          for (bool sp : {true, false}) {
            SCOPED_TRACE(std::string(kind) + " seed " + std::to_string(seed) +
                         " st " + std::to_string(st) + " length " +
                         std::to_string(length) + (sp ? " sp" : " no-sp"));
            Rng rng(seed);
            const GtiEntry entry = BuildGtiEntry(
                BuildGroupsForLength(d, length, st, &rng), st, 0.1, sp);
            ExpectMatchesReference(d, entry, st, sp);
          }
        }
      }
    }
  }
}

/// PairwisePass through each kernel against the scalar loop of
/// NormalizedEuclidean it replaced: every Dc and row sum bit for bit,
/// for group counts on both sides of the 16-lane blocks, with and
/// without the Dc buffer.
TEST(GtiEquivalenceTest, LaneBatchedPairwisePassMatchesTheScalarLoop) {
  Rng rng(8);
  for (size_t g : {0u, 1u, 2u, 15u, 16u, 17u, 31u, 32u, 33u, 50u}) {
    for (size_t length : {1u, 7u, 16u, 37u}) {
      SCOPED_TRACE("g " + std::to_string(g) + " length " +
                   std::to_string(length));
      std::vector<std::vector<double>> values(g, std::vector<double>(length));
      for (auto& v : values) {
        for (double& x : v) x = rng.UniformDouble(0.0, 1.0);
      }
      std::vector<std::span<const double>> reps(values.begin(), values.end());
      std::vector<double> blocks(EdBlockDoubles(g, length), 0.0);
      for (size_t l = 0; l < g; ++l) StoreEdLane(blocks, l, reps[l]);
      std::vector<double> want_sums(g, 0.0), want_dc;
      for (size_t k = 0; k < g; ++k) {
        for (size_t l = k + 1; l < g; ++l) {
          const double d = NormalizedEuclidean(reps[k], reps[l]);
          want_sums[k] += d;
          want_sums[l] += d;
          want_dc.push_back(d);
        }
      }
      for (LaneKernel kernel : {LaneKernel::kPortable, LaneKernel::kAvx2}) {
        if (!LaneKernelSupported(kernel)) continue;
        PairwisePass pass(blocks, g, length, 0.2, true);
        pass.Run(kernel);
        ASSERT_EQ(pass.sums().size(), g);
        ASSERT_EQ(pass.dc().size(), want_dc.size());
        for (size_t k = 0; k < g; ++k) {
          EXPECT_TRUE(BitEqual(pass.sums()[k], want_sums[k])) << "row " << k;
        }
        for (size_t i = 0; i < want_dc.size(); ++i) {
          EXPECT_TRUE(BitEqual(pass.dc()[i], want_dc[i])) << "pair " << i;
        }
        PairwisePass sums_only(blocks, g, length, 0.2, false);
        sums_only.Run(kernel);
        EXPECT_TRUE(sums_only.dc().empty());
        EXPECT_TRUE(std::equal(sums_only.sums().begin(),
                               sums_only.sums().end(), pass.sums().begin(),
                               pass.sums().end()));
      }
    }
  }
}

TEST(GtiEquivalenceTest, DuplicateRepresentativesTieEdges) {
  // Three distinct series, each stored three times: nine groups whose
  // representatives coincide in threes, so many Dc edges are exactly 0
  // and the rest tie in groups of nine.
  GenOptions gen;
  gen.num_series = 3;
  gen.length = 16;
  gen.seed = 9;
  Dataset distinct = MakeRandomWalk(gen);
  MinMaxNormalize(&distinct);
  Dataset d("dups");
  for (int copy = 0; copy < 3; ++copy) {
    for (size_t p = 0; p < distinct.size(); ++p) d.Add(distinct[p]);
  }
  std::vector<uint32_t> all(d.size());
  for (uint32_t p = 0; p < all.size(); ++p) all[p] = p;
  const GtiEntry entry =
      BuildGtiEntry(WholeSeriesGroups(d, all), 0.2, 0.1, true);
  ASSERT_EQ(entry.NumGroups(), 9u);
  ExpectMatchesReference(d, entry, 0.2, true);
  // Three clusters of identical representatives: "half merged" needs
  // only zero-length edges, "final" needs positive ones.
  EXPECT_DOUBLE_EQ(entry.st_half, 0.2);
  EXPECT_GT(entry.st_final, 0.2);
}

TEST(GtiEquivalenceTest, SmallGroupCounts) {
  GenOptions gen;
  gen.num_series = 3;
  gen.length = 16;
  gen.seed = 4;
  Dataset d = MakeRandomWalk(gen);
  MinMaxNormalize(&d);
  for (size_t g = 0; g <= 3; ++g) {
    SCOPED_TRACE("g = " + std::to_string(g));
    std::vector<uint32_t> series;
    for (uint32_t p = 0; p < g; ++p) series.push_back(p);
    const GtiEntry entry =
        BuildGtiEntry(WholeSeriesGroups(d, series), 0.2, 0.1, true);
    ASSERT_EQ(entry.NumGroups(), g);
    ExpectMatchesReference(d, entry, 0.2, true);
  }
}

TEST(GtiEquivalenceTest, AppendBatchRebuildMatchesReference) {
  GenOptions gen;
  gen.num_series = 8;
  gen.length = 24;
  gen.seed = 5;
  Dataset d = MakeItalyPower(gen);
  MinMaxNormalize(&d);
  OnexOptions options;
  options.st = 0.15;
  options.lengths = {4, 24, 4};
  auto built = OnexBase::Build(std::move(d), options);
  ASSERT_TRUE(built.ok());
  OnexBase base = std::move(built).value();
  gen.num_series = 3;
  gen.seed = 6;
  Dataset more = MakeItalyPower(gen);
  MinMaxNormalize(&more);
  std::vector<TimeSeries> batch;
  for (size_t p = 0; p < more.size(); ++p) batch.push_back(more[p]);
  ASSERT_TRUE(base.AppendBatch(std::move(batch)).ok());
  for (const auto& [length, entry] : base.gti().entries()) {
    SCOPED_TRACE("length " + std::to_string(length));
    ExpectMatchesReference(base.dataset(), entry, options.st,
                           options.compute_sp_space);
  }
}

// --------------------------------------------------------------- LsiEntry.

TEST(LsiEntryTest, ClosestMemberBinarySearchAgreesWithLinearScan) {
  Dataset d = TestDataset();
  const GtiEntry entry = BuildEntry(d, 8);
  for (const auto& group : entry.groups) {
    if (group.members.empty()) continue;
    for (double target : {0.0, 0.01, 0.05, 0.1, 0.5, 2.0}) {
      const size_t got = group.ClosestMemberTo(target);
      // Linear reference.
      size_t want = 0;
      double best = std::abs(group.members[0].ed_to_rep - target);
      for (size_t i = 1; i < group.members.size(); ++i) {
        const double diff = std::abs(group.members[i].ed_to_rep - target);
        if (diff < best) {
          best = diff;
          want = i;
        }
      }
      EXPECT_NEAR(std::abs(group.members[got].ed_to_rep - target), best,
                  1e-12);
    }
  }
}

TEST(LsiEntryTest, ClosestMemberOnEmptyEntry) {
  LsiEntry entry;
  EXPECT_EQ(entry.ClosestMemberTo(0.5), 0u);
}

// -------------------------------------------------------- GlobalTimeIndex.

TEST(GlobalTimeIndexTest, InsertAndFind) {
  Dataset d = TestDataset();
  GlobalTimeIndex gti;
  gti.Insert(BuildEntry(d, 8));
  gti.Insert(BuildEntry(d, 12));
  EXPECT_NE(gti.Find(8), nullptr);
  EXPECT_NE(gti.Find(12), nullptr);
  EXPECT_EQ(gti.Find(10), nullptr);
  const auto lengths = gti.Lengths();
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_EQ(lengths[0], 8u);
  EXPECT_EQ(lengths[1], 12u);
}

}  // namespace
}  // namespace onex
