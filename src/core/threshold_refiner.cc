#include "core/threshold_refiner.h"

#include <algorithm>
#include <limits>

#include "core/group_builder.h"
#include "distance/euclidean.h"
#include "util/trace.h"

namespace onex {

Result<GtiEntry> ThresholdRefiner::RefineLength(size_t length,
                                                double st_prime,
                                                const ExecContext* ctx) const {
  ONEX_TRACE_SPAN("refine.length");
  if (!(st_prime > 0.0 && st_prime <= OnexOptions::kMaxSt)) {
    return Status::InvalidArgument("st' must be positive and at most 1e100");
  }
  const GtiEntry* entry = base_->EntryFor(length);
  if (entry == nullptr) {
    return Status::NotFound("length " + std::to_string(length) +
                            " is not in the ONEX base");
  }
  const double st = base_->options().st;
  if (st_prime == st) return *entry;  // Case 1: use as-is.
  ExecChecker check(ctx);
  GtiEntry refined = st_prime < st ? Split(*entry, st_prime, check)
                                   : Merge(*entry, st_prime, check);
  // A half-refined entry would answer queries wrong; drop it and report
  // the interruption instead.
  if (!check.status().ok()) return check.status();
  return refined;
}

GtiEntry ThresholdRefiner::Split(const GtiEntry& entry, double st_prime,
                                 ExecChecker& check) const {
  const Dataset& dataset = base_->dataset();
  const size_t length = entry.length;

  // Re-cluster each group's members, in stored order, at the smaller
  // radius with the original assignment rule (nearest qualifying
  // representative), each group on its own.
  std::vector<SubsequenceRef> refs;
  for (const LsiEntry& group : entry.groups) {
    for (const LsiMember& member : group.members) refs.push_back(member.ref);
  }
  GroupAssigner refined(dataset, length, st_prime, std::move(refs));
  for (const LsiEntry& group : entry.groups) {
    refined.CloseGroups();
    for (size_t m = 0; m < group.members.size(); ++m) {
      // The caller drops an interrupted split.
      if (check.ShouldStop()) return {};
      refined.AssignNext();
    }
  }
  return BuildGtiEntry(refined, st_prime, base_->options().window_ratio,
                       base_->options().compute_sp_space);
}

GtiEntry ThresholdRefiner::Merge(const GtiEntry& entry, double st_prime,
                                 ExecChecker& check) const {
  const Dataset& dataset = base_->dataset();
  const size_t length = entry.length;
  const double st = base_->options().st;
  const double budget = st_prime - st;  // Merge fires when Dc <= budget.

  // Working set: member lists + weighted-average representatives.
  struct Working {
    std::vector<SubsequenceRef> members;
    std::vector<double> rep;
  };
  std::vector<Working> work;
  work.reserve(entry.NumGroups());
  for (const LsiEntry& group : entry.groups) {
    Working w;
    const std::span<const double> rep = RepresentativeOf(group, dataset);
    w.rep.assign(rep.begin(), rep.end());
    w.members.reserve(group.members.size());
    for (const LsiMember& member : group.members) {
      w.members.push_back(member.ref);
    }
    work.push_back(std::move(w));
  }

  // Cascading merge (Sec. 5.2 case 3.2a): repeatedly merge the *closest*
  // qualifying pair (deterministic stand-in for the paper's random pick),
  // recompute the merged representative, repeat until no pair qualifies.
  bool merged = true;
  while (merged && work.size() > 1) {
    if (check.ShouldStop()) break;
    merged = false;
    double best_d = std::numeric_limits<double>::infinity();
    size_t best_a = 0, best_b = 0;
    for (size_t a = 0; a < work.size(); ++a) {
      if (check.ShouldStop()) break;
      for (size_t b = a + 1; b < work.size(); ++b) {
        const double d = NormalizedEuclidean(
            std::span<const double>(work[a].rep.data(), length),
            std::span<const double>(work[b].rep.data(), length));
        if (d <= budget && d < best_d) {
          best_d = d;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_d <= budget) {
      Working& a = work[best_a];
      Working& b = work[best_b];
      const double na = static_cast<double>(a.members.size());
      const double nb = static_cast<double>(b.members.size());
      for (size_t i = 0; i < length; ++i) {
        a.rep[i] = (a.rep[i] * na + b.rep[i] * nb) / (na + nb);
      }
      a.members.insert(a.members.end(), b.members.begin(), b.members.end());
      work.erase(work.begin() + static_cast<ptrdiff_t>(best_b));
      merged = true;
    }
  }

  // The merged groups, members in merge order, each representative
  // recomputed as the running mean of its members (Def. 7).
  std::vector<SubsequenceRef> refs;
  for (const Working& w : work) {
    refs.insert(refs.end(), w.members.begin(), w.members.end());
  }
  GroupAssigner refined(dataset, length, st_prime, std::move(refs));
  for (const Working& w : work) refined.FoundGroup(w.members.size());
  return BuildGtiEntry(refined, st_prime, base_->options().window_ratio,
                       base_->options().compute_sp_space);
}

Result<GlobalTimeIndex> ThresholdRefiner::RefineAll(
    double st_prime, const ExecContext* ctx) const {
  if (!(st_prime > 0.0 && st_prime <= OnexOptions::kMaxSt)) {
    return Status::InvalidArgument("st' must be positive and at most 1e100");
  }
  GlobalTimeIndex refined;
  for (size_t length : base_->gti().Lengths()) {
    auto entry = RefineLength(length, st_prime, ctx);
    if (!entry.ok()) return entry.status();
    refined.Insert(std::move(entry).value());
  }
  return refined;
}

Result<OnexBase> ThresholdRefiner::RefinedBase(double st_prime) const {
  auto refined = RefineAll(st_prime);
  if (!refined.ok()) return refined.status();
  OnexOptions options = base_->options();
  options.st = st_prime;
  return OnexBase::FromParts(base_->dataset(), options,
                             std::move(refined).value());
}

}  // namespace onex
