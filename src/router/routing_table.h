// Copyright 2026 The ONEX Reproduction Authors.
// Routing table of the scatter-gather tier: dataset -> {leader,
// followers}, learned by probing every configured upstream's HEALTH
// (role + readiness + replica lag) and dataset listing (MANIFEST on
// durable leaders, LIST everywhere — non-durable leaders publish no
// manifest). The table is a snapshot container: probe threads Update()
// whole per-upstream snapshots, session threads make routing decisions
// against the latest state without blocking the probes.

#ifndef ONEX_ROUTER_ROUTING_TABLE_H_
#define ONEX_ROUTER_ROUTING_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace onex {
namespace router {

/// One configured upstream node (a leader or a follower — the router
/// does not care which until the probe tells it).
struct UpstreamConfig {
  std::string host;
  uint16_t port = 0;
  std::string address() const {
    return host + ":" + std::to_string(port);
  }
};

/// What the last probe learned about one upstream.
struct UpstreamHealth {
  bool reachable = false;  ///< The probe connected and got HEALTH back.
  bool live = false;
  bool ready = false;
  /// The HEALTH payload carried a `check name=replica_lag` row — the
  /// node is a follower (ServerOptions::replica_status is follower-only).
  bool follower = false;
  double replica_lag_s = -1.0;
  std::string error;  ///< Last probe failure, for INSPECT.
};

/// One upstream's full probed state.
struct UpstreamSnapshot {
  UpstreamConfig config;
  UpstreamHealth health;
  std::vector<std::string> datasets;  ///< Names this node serves.
};

/// True when `dataset` is named by the shard-set spec: an exact match,
/// `*` (everything), or `<prefix>*` (prefix match — the documented
/// grammar is a single trailing star).
bool MatchesShardSet(const std::string& spec, const std::string& dataset);

/// True when the spec is a shard-set (contains a star) rather than an
/// exact dataset name.
bool IsShardSet(const std::string& spec);

class RoutingTable {
 public:
  explicit RoutingTable(std::vector<UpstreamConfig> upstreams);

  size_t size() const { return size_; }

  /// Replaces upstream `i`'s snapshot (probe thread).
  void Update(size_t i, UpstreamHealth health,
              std::vector<std::string> datasets);

  /// Expands a shard-set spec (or exact name) to the sorted set of
  /// distinct dataset names any upstream currently serves.
  std::vector<std::string> Expand(const std::string& spec) const;

  /// Read routing: the READY follower serving `dataset` with the
  /// lowest replica lag, falling back to a ready leader (non-follower)
  /// when no follower qualifies. Upstreams in `exclude` (already tried
  /// this query — failover) are skipped. nullopt = nobody can serve it.
  std::optional<size_t> PickRead(const std::string& dataset,
                                 const std::vector<size_t>& exclude) const;

  /// Write routing: a ready non-follower serving `dataset` (appends on
  /// a follower would bounce with READ_ONLY anyway).
  std::optional<size_t> PickWrite(const std::string& dataset) const;

  /// Full copy for INSPECT/HEALTH rendering.
  std::vector<UpstreamSnapshot> Snapshot() const;

  /// Upstream `i`'s configured address (what Dial needs).
  UpstreamConfig Config(size_t i) const;

  /// Whether the last probe found upstream `i` to be a follower (what a
  /// routed leg's metrics label needs).
  bool IsFollower(size_t i) const;

 private:
  const size_t size_;
  mutable Mutex mutex_{LockRank::kRouterTable, "router.table_mutex"};
  std::vector<UpstreamSnapshot> upstreams_ GUARDED_BY(mutex_);
};

}  // namespace router
}  // namespace onex

#endif  // ONEX_ROUTER_ROUTING_TABLE_H_
