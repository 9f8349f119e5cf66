#include "core/onex_base.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/group_builder.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace onex {

std::string BaseStats::ToString() const {
  std::ostringstream out;
  out << "build=" << build_seconds << "s subsequences=" << num_subsequences
      << " representatives=" << num_representatives
      << " lengths=" << num_lengths << " size=" << TotalMb() << "MB (gti="
      << gti_bytes << "B lsi=" << lsi_bytes << "B)";
  return out.str();
}

Status CheckSeriesValues(const TimeSeries& series) {
  for (size_t i = 0; i < series.length(); ++i) {
    const double v = series[i];
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("series value " + std::to_string(i) +
                                     " is not finite");
    }
    if (std::abs(v) > kMaxAbsSeriesValue) {
      return Status::InvalidArgument("series value " + std::to_string(i) +
                                     " exceeds the magnitude limit 1e100");
    }
  }
  return Status::OK();
}

namespace {

/// Builds every length's entry into `gti`, spreading the work over
/// `pool`. Throws std::bad_alloc when memory runs out.
void BuildLengths(const Dataset& data, const OnexOptions& options,
                  WorkPool& pool, GlobalTimeIndex* gti) {
  // The union of candidate lengths over all series (series may be
  // ragged), ascending: the order the one Rng is drawn in.
  std::set<size_t> length_set;
  for (size_t p = 0; p < data.size(); ++p) {
    for (size_t len : options.lengths.LengthsFor(data[p].length())) {
      length_set.insert(len);
    }
  }
  const std::vector<size_t> lengths(length_set.begin(), length_set.end());
  Rng rng(options.seed);
  std::vector<std::vector<SubsequenceRef>> refs;
  refs.reserve(lengths.size());
  for (size_t length : lengths) {
    refs.push_back(ShuffledRefs(data, length, &rng));
  }

  // Everything a task writes is allocated here, on this thread, before
  // the task is submitted: pool workers allocate nothing. A slot holds
  // one length from its scan storage's creation to its entry's
  // insertion, through its Dc triangle, so the build's memory follows
  // its slots, not its lengths. There is one slot per thread that runs
  // tasks, plus one when workers run them: a worker that finishes while
  // this thread is inside a task of its own then finds the spare
  // length's task instead of waiting for this thread to free a slot.
  struct Slot {
    std::optional<GroupAssigner> groups;
    GtiEntry entry;
    std::optional<PairwisePass> pairs;
  };
  const size_t slot_count = pool.workers() == 0 ? 1 : pool.workers() + 2;
  std::vector<Slot> slots(std::min(lengths.size(), slot_count));
  std::vector<Slot*> owner;  // Task id -> its slot.
  owner.reserve(2 * lengths.size());
  WorkPool::Batch batch(pool);
  // Lengths start longest first: on a base like explore's the long
  // lengths hold the most groups.
  size_t unstarted = lengths.size();
  const auto start_scan = [&](Slot& slot) {
    if (unstarted == 0) return;
    --unstarted;
    slot.groups.emplace(data, lengths[unstarted], options.st,
                        std::move(refs[unstarted]));
    owner.push_back(&slot);
    batch.Submit([&slot] { slot.groups->AssignRest(); });
  };
  for (Slot& slot : slots) start_scan(slot);
  for (size_t id; (id = batch.Next()) != WorkPool::Batch::kNone;) {
    Slot& slot = *owner[id];
    if (!slot.pairs) {
      const GroupAssigner& groups = *slot.groups;
      slot.entry = FreezeGroups(groups, options.window_ratio);
      slot.pairs.emplace(groups.blocks(), groups.size(), groups.length(),
                         options.st, options.compute_sp_space);
      owner.push_back(&slot);
      batch.Submit([&slot] { slot.pairs->Run(); });
    } else {
      slot.pairs->Finish(&slot.entry);
      slot.pairs.reset();
      slot.groups.reset();
      gti->Insert(std::move(slot.entry));
      start_scan(slot);
    }
  }
}

}  // namespace

Result<OnexBase> OnexBase::Build(Dataset dataset, const OnexOptions& options,
                                 WorkPool& pool) {
  Status valid = options.Validate();
  if (!valid.ok()) return valid;
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot build a base over an empty "
                                   "dataset");
  }
  for (size_t i = 0; i < dataset.size(); ++i) {
    Status values = CheckSeriesValues(dataset[i]);
    if (!values.ok()) {
      return Status::InvalidArgument("series " + std::to_string(i) + ": " +
                                     values.message());
    }
  }

  OnexBase base;
  base.options_ = options;
  base.dataset_ = std::move(dataset);

  Timer timer;
  try {
    BuildLengths(base.dataset_, options, pool, &base.gti_);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("out of memory building the base over '" +
                                     base.dataset_.name() + "'");
  }
  const double build_seconds = timer.ElapsedSeconds();
  base.RefreshDerivedState();
  base.stats_.build_seconds = build_seconds;
  ONEX_LOG_DEBUG << "built ONEX base over '" << base.dataset_.name()
                 << "': " << base.stats_.ToString();
  return base;
}

OnexBase OnexBase::FromParts(Dataset dataset, OnexOptions options,
                             GlobalTimeIndex gti) {
  OnexBase base;
  base.dataset_ = std::move(dataset);
  base.options_ = options;
  base.gti_ = std::move(gti);
  base.RefreshDerivedState();
  return base;
}

void OnexBase::RefreshDerivedState() {
  stats_ = BaseStats();
  sp_space_ = SpSpace();
  for (const auto& [length, entry] : gti_.entries()) {
    ++stats_.num_lengths;
    stats_.num_representatives += entry.NumGroups();
    for (const auto& group : entry.groups) {
      stats_.num_subsequences += group.size();
    }
    stats_.gti_bytes += entry.GtiMemoryBytes();
    stats_.lsi_bytes += entry.LsiMemoryBytes();
    if (options_.compute_sp_space) {
      sp_space_.AddLength(length, {entry.st_half, entry.st_final});
    }
  }
}

}  // namespace onex
