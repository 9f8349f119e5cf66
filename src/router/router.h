// Copyright 2026 The ONEX Reproduction Authors.
// onex_router: the scatter-gather front door of a replicated ONEX
// deployment. Speaks the ONEX wire protocol downstream (clients connect
// to it exactly as they would to a server) and upstream (it is itself a
// client of every configured leader/follower node).
//
// What it adds over a plain node:
//   - replica-aware reads: queries go to the lowest-lag READY follower
//     serving the dataset, with leader fallback; APPEND/FLUSH always go
//     to the leader.
//   - shard-set addressing: `dataset=sales-*` (or `use sales-*`)
//     scatters one query across every matching upstream dataset and
//     gathers the legs into one coherent progressive answer with one
//     final block (match rows re-ranked by distance into a single
//     top-k; GROUP/REC frames interleaved by origin).
//   - mid-query failover, the one retry layer between router and
//     node: a leg whose link dies (transport error) drops that link
//     and is re-submitted to its next untried replica with the
//     deadline budget that remains — or, when none is left, on a
//     freshly dialed link to the best reachable one, which may be the
//     same (restarted) node. Re-submits are idempotent — tagged
//     queries are read-only by grammar. Writes are NEVER retried.
//
// Concurrency model: the wire side — listener, accept thread, one
// session thread per downstream client, the line loop, ping/help/quit,
// cancel and the per-session in-flight table — is the shared
// server/session_host.h, the same code a node runs. The router's
// session handler answers `use`, its own introspection verbs and
// forwarded writes inline, and runs untagged queries on the session
// thread. Each tagged query gets a coordinator thread (so CANCEL can
// overtake it on the session thread) and an in-flight entry whose
// cancel action fans the cancel out to every leg; a client that
// disconnects therefore cancels its scatters upstream too. A query's
// coordinator — the session thread when untagged — submits every leg
// on the shared upstream links and gathers the finals in completion
// order: the handles' completion hooks, run on each link's demux
// reader, queue the leg on the op, and a dead leg is re-submitted as
// soon as its failure is dequeued. The demux readers also deliver PART
// frames into the per-query merge state machine. Finished coordinators
// are joined as the next tagged query arrives on their session. Every
// accepted and dialed socket sets TCP_NODELAY. Lock order: session
// host (10) < routing table (44) < upstream pool (46) < merge op (48) <
// session write (52) < session in-flight table (54) < client locks
// (70+).

#ifndef ONEX_ROUTER_ROUTER_H_
#define ONEX_ROUTER_ROUTER_H_

#include <memory>
#include <string>
#include <vector>

#include "router/router_metrics.h"
#include "router/routing_table.h"
#include "router/upstream.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/session_host.h"
#include "util/status.h"

namespace onex {
namespace router {

struct RouterOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral (tests read port()).
  std::vector<UpstreamConfig> upstreams;
  UpstreamPoolOptions pool;
  /// Re-submit attempts per leg after the first transport failure
  /// (a dead cached link included).
  int max_failovers = 2;
};

class Router {
 public:
  /// Binds, probes every upstream once (so the first client sees a
  /// populated routing table), and starts the accept loop.
  static Result<std::unique_ptr<Router>> Start(RouterOptions options);
  ~Router();

  void Stop();

  uint16_t port() const { return host_.port(); }

  // Test and introspection access.
  RoutingTable& table() { return table_; }
  RouterMetrics& metrics() { return metrics_; }
  UpstreamPool& pool() { return pool_; }

 private:
  /// The router's half of one downstream session: its `use` binding,
  /// write link and coordinator threads. Defined in router.cc.
  struct Connection;
  struct ScatterOp;

  explicit Router(RouterOptions options);

  /// Answers one request the host leaves to the router: `use`, the
  /// introspection verbs, forwarded writes, and queries.
  void HandleRequest(Connection* connection, const server::Request& request,
                     const server::RequestAttrs& attrs,
                     const std::string& line);

  /// Runs one (possibly scattered) query to its merged final block:
  /// submits one leg per dataset, gathers them in completion order, and
  /// fails a leg over (with the remaining budget) as soon as its
  /// transport dies: to its next untried replica, else to a fresh link
  /// to the best reachable one. Blocks until done — tagged queries run
  /// it on their coordinator thread.
  void RunScatter(const std::shared_ptr<ScatterOp>& op,
                  const QueryRequest& request,
                  const server::RequestAttrs& attrs,
                  const std::vector<std::string>& datasets);
  /// Demux-thread PART delivery into the merge state machine.
  static void OnLegPart(const std::shared_ptr<ScatterOp>& op, size_t leg,
                        const server::WireResponse& part);

  /// Forwards APPEND/FLUSH to the leader over the session's dedicated
  /// blocking write connection (dialed and `use`-bound on demand).
  void ForwardWrite(Connection* connection, const std::string& raw_line,
                    const std::string& verb);
  /// A tagged query's cancel action: fans the cancel out to every leg.
  void CancelOp(const std::shared_ptr<ScatterOp>& op);

  std::string RenderRouterHealth() const;
  std::string RenderRouterInspect() const;
  std::string RenderRouterList() const;

  const RouterOptions options_;
  RoutingTable table_;
  RouterMetrics metrics_;
  UpstreamPool pool_;

  server::SessionHost host_;
};

}  // namespace router
}  // namespace onex

#endif  // ONEX_ROUTER_ROUTER_H_
