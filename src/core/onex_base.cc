#include "core/onex_base.h"

#include <cmath>
#include <sstream>
#include <string>

#include "core/group_builder.h"
#include "util/logging.h"
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

Result<OnexBase> OnexBase::Build(Dataset dataset,
                                 const OnexOptions& options) {
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
  auto groups_by_length = BuildAllGroups(base.dataset_, options);
  for (auto& [length, groups] : groups_by_length) {
    base.gti_.Insert(
        BuildGtiEntry(base.dataset_, std::move(groups), options.st,
                      options.window_ratio, options.compute_sp_space));
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
