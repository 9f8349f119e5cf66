#include "router/routing_table.h"

#include <algorithm>
#include <set>

namespace onex {
namespace router {

bool IsShardSet(const std::string& spec) {
  return spec.find('*') != std::string::npos;
}

bool MatchesShardSet(const std::string& spec, const std::string& dataset) {
  if (spec == "*") return true;
  const size_t star = spec.find('*');
  if (star == std::string::npos) return spec == dataset;
  // Grammar: one trailing star, prefix match. A star anywhere else is
  // treated as the literal prefix up to it — keep the contract simple
  // enough to document in one line.
  const std::string prefix = spec.substr(0, star);
  return dataset.size() >= prefix.size() &&
         dataset.compare(0, prefix.size(), prefix) == 0;
}

RoutingTable::RoutingTable(std::vector<UpstreamConfig> upstreams)
    : size_(upstreams.size()) {
  MutexLock lock(mutex_);
  upstreams_.resize(upstreams.size());
  for (size_t i = 0; i < upstreams.size(); ++i) {
    upstreams_[i].config = std::move(upstreams[i]);
  }
}

void RoutingTable::Update(size_t i, UpstreamHealth health,
                          std::vector<std::string> datasets) {
  MutexLock lock(mutex_);
  if (i >= upstreams_.size()) return;
  upstreams_[i].health = health;
  upstreams_[i].datasets = std::move(datasets);
}

std::vector<std::string> RoutingTable::Expand(const std::string& spec) const {
  std::set<std::string> names;
  {
    MutexLock lock(mutex_);
    for (const UpstreamSnapshot& up : upstreams_) {
      for (const std::string& dataset : up.datasets) {
        if (MatchesShardSet(spec, dataset)) names.insert(dataset);
      }
    }
  }
  return {names.begin(), names.end()};
}

std::optional<size_t> RoutingTable::PickRead(
    const std::string& dataset, const std::vector<size_t>& exclude) const {
  auto excluded = [&](size_t i) {
    return std::find(exclude.begin(), exclude.end(), i) != exclude.end();
  };
  MutexLock lock(mutex_);
  // Lowest-lag ready follower first; never-synced followers report a
  // negative lag and are not ready, so they fall out on `ready`.
  std::optional<size_t> best;
  double best_lag = 0.0;
  for (size_t i = 0; i < upstreams_.size(); ++i) {
    const UpstreamSnapshot& up = upstreams_[i];
    if (excluded(i) || !up.health.ready || !up.health.follower) continue;
    if (std::find(up.datasets.begin(), up.datasets.end(), dataset) ==
        up.datasets.end()) {
      continue;
    }
    if (!best.has_value() || up.health.replica_lag_s < best_lag) {
      best = i;
      best_lag = up.health.replica_lag_s;
    }
  }
  if (best.has_value()) return best;
  // Leader fallback.
  for (size_t i = 0; i < upstreams_.size(); ++i) {
    const UpstreamSnapshot& up = upstreams_[i];
    if (excluded(i) || !up.health.ready || up.health.follower) continue;
    if (std::find(up.datasets.begin(), up.datasets.end(), dataset) !=
        up.datasets.end()) {
      return i;
    }
  }
  return std::nullopt;
}

std::optional<size_t> RoutingTable::PickWrite(
    const std::string& dataset) const {
  MutexLock lock(mutex_);
  for (size_t i = 0; i < upstreams_.size(); ++i) {
    const UpstreamSnapshot& up = upstreams_[i];
    if (!up.health.ready || up.health.follower) continue;
    if (std::find(up.datasets.begin(), up.datasets.end(), dataset) !=
        up.datasets.end()) {
      return i;
    }
  }
  return std::nullopt;
}

std::vector<UpstreamSnapshot> RoutingTable::Snapshot() const {
  MutexLock lock(mutex_);
  return upstreams_;
}

UpstreamConfig RoutingTable::Config(size_t i) const {
  MutexLock lock(mutex_);
  return upstreams_[i].config;
}

bool RoutingTable::IsFollower(size_t i) const {
  MutexLock lock(mutex_);
  return upstreams_[i].health.follower;
}

}  // namespace router
}  // namespace onex
