// Scalar reference for Algorithm 1's assignment rule, shared by the
// grouping tests: one SquaredEuclideanEarlyAbandon per representative,
// in group order, each abandoned at the better of the running minimum
// and the join radius; the strict `<` keeps the earliest of equal
// distances. GroupAssigner scores representatives in lanes and must
// reach the same groups, member order and representative bits. The
// reference keeps each group's members, sums and mean in vectors of
// its own, refreshed on every join.

#ifndef ONEX_TESTS_SCALAR_GROUPING_H_
#define ONEX_TESTS_SCALAR_GROUPING_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/group_builder.h"
#include "core/gti.h"
#include "dataset/dataset.h"
#include "distance/euclidean.h"
#include "util/rng.h"

namespace onex {
namespace scalar_grouping {

/// A group under construction, kept the plain way: its members, and
/// the point-wise sums and mean of their values (Def. 7), refreshed on
/// every join.
struct Group {
  Group(SubsequenceRef ref, std::span<const double> values)
      : members{ref}, sum(values.begin(), values.end()), rep(sum) {}

  void Add(SubsequenceRef ref, std::span<const double> values) {
    members.push_back(ref);
    const double inv_count = 1.0 / static_cast<double>(members.size());
    for (size_t i = 0; i < sum.size(); ++i) {
      sum[i] += values[i];
      rep[i] = sum[i] * inv_count;
    }
  }

  size_t size() const { return members.size(); }

  std::vector<SubsequenceRef> members;
  std::vector<double> sum;
  std::vector<double> rep;
};

/// Squared raw-ED join radius: (sqrt(L) * ST / 2)^2.
inline double RadiusSq(size_t length, double st) {
  const double radius = std::sqrt(static_cast<double>(length)) * st / 2.0;
  return radius * radius;
}

/// Joins `ref` to the nearest representative of `groups` within the
/// radius, or founds a group with it.
inline void Assign(std::vector<Group>& groups, double radius_sq,
                   SubsequenceRef ref, std::span<const double> values) {
  double min_sq = std::numeric_limits<double>::infinity();
  size_t min_k = 0;
  for (size_t k = 0; k < groups.size(); ++k) {
    const double d_sq = SquaredEuclideanEarlyAbandon(
        values, groups[k].rep, std::min(min_sq, radius_sq));
    if (d_sq < min_sq) {
      min_sq = d_sq;
      min_k = k;
    }
  }
  if (!groups.empty() && min_sq <= radius_sq) {
    groups[min_k].Add(ref, values);
  } else {
    groups.emplace_back(ref, values);
  }
}

/// BuildGroupsForLength through the scalar rule.
inline std::vector<Group> BuildGroupsForLength(const Dataset& dataset,
                                               size_t length, double st,
                                               Rng* rng) {
  std::vector<SubsequenceRef> refs;
  for (uint32_t p = 0; p < dataset.size(); ++p) {
    for (uint32_t j = 0; j + length <= dataset[p].length(); ++j) {
      refs.push_back({p, j, static_cast<uint32_t>(length)});
    }
  }
  RandomizeInPlace(&refs, rng);
  std::vector<Group> groups;
  const double radius_sq = RadiusSq(length, st);
  for (const SubsequenceRef& ref : refs) {
    Assign(groups, radius_sq, ref, ref.View(dataset));
  }
  return groups;
}

/// A frozen entry's groups as construction-time groups, members re-added
/// in stored order (as OnexBase::AppendBatch reconstitutes them).
inline std::vector<Group> Reconstitute(const Dataset& dataset,
                                       const GtiEntry& entry) {
  std::vector<Group> groups;
  for (const LsiEntry& lsi : entry.groups) {
    Group group(lsi.members[0].ref, lsi.members[0].ref.View(dataset));
    for (size_t m = 1; m < lsi.members.size(); ++m) {
      group.Add(lsi.members[m].ref, lsi.members[m].ref.View(dataset));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

/// `groups` (all of `length`, over `dataset`) in a GroupAssigner, ready
/// for BuildGtiEntry: each one's members in order, no scan.
inline GroupAssigner ToAssigner(const Dataset& dataset, size_t length,
                                double st, const std::vector<Group>& groups) {
  std::vector<SubsequenceRef> refs;
  for (const Group& group : groups) {
    refs.insert(refs.end(), group.members.begin(), group.members.end());
  }
  GroupAssigner assigner(dataset, length, st, std::move(refs));
  for (const Group& group : groups) assigner.FoundGroup(group.size());
  return assigner;
}

/// The groups a GroupAssigner holds, members in assignment order.
inline std::vector<Group> GroupsOf(const GroupAssigner& assigner) {
  std::vector<std::vector<SubsequenceRef>> members(assigner.size());
  const auto group_of = assigner.group_of();
  for (size_t i = 0; i < group_of.size(); ++i) {
    members[group_of[i]].push_back(assigner.refs()[i]);
  }
  std::vector<Group> groups;
  for (size_t k = 0; k < assigner.size(); ++k) {
    const std::vector<double> rep = assigner.Representative(k);
    Group group(members[k][0], rep);
    group.members = std::move(members[k]);
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
inline void ExpectSameGroups(const GroupAssigner& got,
                             const std::vector<Group>& want) {
  const std::vector<Group> groups = GroupsOf(got);
  ASSERT_EQ(groups.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(groups[k].members, want[k].members) << "group " << k;
    EXPECT_EQ(got.members(k), want[k].size()) << "group " << k;
    EXPECT_TRUE(SameBits(groups[k].rep, want[k].rep)) << "group " << k;
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
