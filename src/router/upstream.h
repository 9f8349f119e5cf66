// Copyright 2026 The ONEX Reproduction Authors.
// Upstream pool: owns the router's view of every configured node.
//
// Two kinds of connection per upstream, on purpose:
//   - PROBES: short-lived blocking sessions (HEALTH + LIST) dialed
//     fresh each round with connect/io timeouts. Both verbs answer
//     inline on the upstream's session thread, so probes keep working
//     when its worker pool is wedged — exactly when routing away from
//     it matters most.
//   - QUERY LINKS: one long-lived async Client per upstream (demux
//     thread) shared by every routed query leg. Lazily dialed; a link
//     whose socket died is dropped by the leg that saw it fail, and
//     the next QueryLink dials afresh. The pool never retries on its
//     own — the router's leg failover is the one retry layer.

#ifndef ONEX_ROUTER_UPSTREAM_H_
#define ONEX_ROUTER_UPSTREAM_H_

#include <memory>
#include <thread>
#include <vector>

#include "router/routing_table.h"
#include "server/client.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace onex {
namespace router {

struct UpstreamPoolOptions {
  uint64_t probe_interval_ms = 1000;
  /// Applied to probe dials and query links alike.
  uint64_t connect_timeout_ms = 2000;
  uint64_t io_timeout_ms = 5000;
};

class UpstreamPool {
 public:
  /// `table` must outlive the pool; the pool writes probe results into
  /// it and never reads routing decisions back.
  UpstreamPool(UpstreamPoolOptions options, RoutingTable* table);
  ~UpstreamPool();

  /// Probes every upstream once synchronously (so the table is useful
  /// before the first client connects), then starts one probe thread
  /// per upstream.
  void Start();
  void Stop();

  /// One synchronous probe of upstream `i`: HEALTH + LIST over a fresh
  /// blocking connection, result written into the routing table.
  void ProbeNow(size_t i);

  /// A fresh blocking session to upstream `i` with the pool's connect
  /// and IO timeouts — the one dial behind probes, query links and the
  /// router's write connections.
  Result<server::Client> Dial(size_t i) const;

  /// The shared async query link for upstream `i`, dialing it first if
  /// needed. A cached link may have died since it was handed out
  /// (Submit or Wait then returns IOError): drop it with DropLink.
  Result<std::shared_ptr<server::Client>> QueryLink(size_t i);

  /// Discards upstream `i`'s query link if it still is `dead` (a link
  /// whose Wait/Submit returned IOError), so the next QueryLink dials
  /// fresh instead of reusing a client whose demux has exited.
  void DropLink(size_t i, const server::Client* dead);

  /// Parses a HEALTH reply block into the probe's health view: ready/
  /// live from the header, follower + lag from the
  /// `check name=replica_lag` payload row (follower-only by
  /// construction — leaders never render it).
  static UpstreamHealth ParseHealth(const server::WireResponse& reply);

  /// Parses a LIST reply's `dataset name=...` payload rows.
  static std::vector<std::string> ParseDatasets(
      const server::WireResponse& reply);

 private:
  void ProbeLoop(size_t i);

  const UpstreamPoolOptions options_;
  RoutingTable* const table_;

  mutable Mutex mutex_{LockRank::kRouterUpstream, "router.upstream_mutex"};
  std::vector<std::shared_ptr<server::Client>> links_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
  CondVar stop_cv_;
  std::vector<std::thread> probe_threads_;
};

}  // namespace router
}  // namespace onex

#endif  // ONEX_ROUTER_UPSTREAM_H_
