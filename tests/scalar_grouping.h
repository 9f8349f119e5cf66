// Scalar reference for Algorithm 1's assignment rule, shared by the
// grouping tests: one SquaredEuclideanEarlyAbandon per representative,
// in group order, each abandoned at the better of the running minimum
// and the join radius; the strict `<` keeps the earliest of equal
// distances. GroupAssigner scores representatives in lanes and must
// reach the same groups, member order and representative bits.

#ifndef ONEX_TESTS_SCALAR_GROUPING_H_
#define ONEX_TESTS_SCALAR_GROUPING_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/group.h"
#include "core/gti.h"
#include "dataset/dataset.h"
#include "distance/euclidean.h"
#include "util/rng.h"

namespace onex {
namespace scalar_grouping {

/// Squared raw-ED join radius: (sqrt(L) * ST / 2)^2.
inline double RadiusSq(size_t length, double st) {
  const double radius = std::sqrt(static_cast<double>(length)) * st / 2.0;
  return radius * radius;
}

/// Joins `ref` to the nearest representative of `groups` within the
/// radius, or founds a group with it.
inline void Assign(std::vector<SimilarityGroup>& groups, size_t length,
                   double radius_sq, SubsequenceRef ref,
                   std::span<const double> values) {
  double min_sq = std::numeric_limits<double>::infinity();
  size_t min_k = 0;
  for (size_t k = 0; k < groups.size(); ++k) {
    const double d_sq = SquaredEuclideanEarlyAbandon(
        values,
        std::span<const double>(groups[k].representative().data(), length),
        std::min(min_sq, radius_sq));
    if (d_sq < min_sq) {
      min_sq = d_sq;
      min_k = k;
    }
  }
  if (!groups.empty() && min_sq <= radius_sq) {
    groups[min_k].Add(ref, values);
  } else {
    groups.emplace_back(length, ref, values);
  }
}

/// BuildGroupsForLength through the scalar rule.
inline std::vector<SimilarityGroup> BuildGroupsForLength(
    const Dataset& dataset, size_t length, double st, Rng* rng) {
  std::vector<SubsequenceRef> refs;
  for (uint32_t p = 0; p < dataset.size(); ++p) {
    for (uint32_t j = 0; j + length <= dataset[p].length(); ++j) {
      refs.push_back({p, j, static_cast<uint32_t>(length)});
    }
  }
  RandomizeInPlace(&refs, rng);
  std::vector<SimilarityGroup> groups;
  const double radius_sq = RadiusSq(length, st);
  for (const SubsequenceRef& ref : refs) {
    Assign(groups, length, radius_sq, ref, ref.View(dataset));
  }
  return groups;
}

/// A frozen entry's groups as construction-time groups, members re-added
/// in stored order (as OnexBase::AppendBatch reconstitutes them).
inline std::vector<SimilarityGroup> Reconstitute(const Dataset& dataset,
                                                 const GtiEntry& entry) {
  std::vector<SimilarityGroup> groups;
  for (const LsiEntry& lsi : entry.groups) {
    SimilarityGroup group(entry.length, lsi.members[0].ref,
                          lsi.members[0].ref.View(dataset));
    for (size_t m = 1; m < lsi.members.size(); ++m) {
      group.Add(lsi.members[m].ref, lsi.members[m].ref.View(dataset));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

inline bool SameBits(std::span<const double> a, std::span<const double> b) {
  // memcmp takes no null pointer, even for zero bytes.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Same groups in the same order, same members in the same order, and
/// the same representative bits.
inline void ExpectSameGroups(const std::vector<SimilarityGroup>& got,
                             const std::vector<SimilarityGroup>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(got[k].members(), want[k].members()) << "group " << k;
    EXPECT_TRUE(SameBits(got[k].representative(), want[k].representative()))
        << "group " << k;
  }
}

/// Same frozen groups (members, EDs and representatives bit for bit),
/// sum order and SP-Space markers.
inline void ExpectSameEntry(const GtiEntry& got, const GtiEntry& want) {
  ASSERT_EQ(got.length, want.length);
  ASSERT_EQ(got.NumGroups(), want.NumGroups());
  for (size_t k = 0; k < want.NumGroups(); ++k) {
    const LsiEntry& a = got.groups[k];
    const LsiEntry& b = want.groups[k];
    EXPECT_TRUE(SameBits(a.representative, b.representative)) << k;
    ASSERT_EQ(a.members.size(), b.members.size()) << k;
    for (size_t m = 0; m < b.members.size(); ++m) {
      EXPECT_EQ(a.members[m].ref, b.members[m].ref) << k << "/" << m;
      EXPECT_TRUE(SameBits(std::span(&a.members[m].ed_to_rep, 1),
                           std::span(&b.members[m].ed_to_rep, 1)))
          << k << "/" << m;
    }
  }
  ASSERT_EQ(got.sum_sorted.size(), want.sum_sorted.size());
  for (size_t i = 0; i < want.sum_sorted.size(); ++i) {
    EXPECT_EQ(got.sum_sorted[i].first, want.sum_sorted[i].first) << i;
    EXPECT_TRUE(SameBits(std::span(&got.sum_sorted[i].second, 1),
                         std::span(&want.sum_sorted[i].second, 1)))
        << i;
  }
  EXPECT_TRUE(
      SameBits(std::span(&got.st_half, 1), std::span(&want.st_half, 1)));
  EXPECT_TRUE(
      SameBits(std::span(&got.st_final, 1), std::span(&want.st_final, 1)));
}

}  // namespace scalar_grouping
}  // namespace onex

#endif  // ONEX_TESTS_SCALAR_GROUPING_H_
