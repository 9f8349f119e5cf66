#include "router/router_metrics.h"

#include <cstdio>

#include "util/process_stats.h"

namespace onex {
namespace router {

using server::HistogramFamily;
using server::Preamble;
using server::ProcessFamilies;
using server::SimpleCounter;

RouterMetrics::RouterMetrics(size_t num_upstreams) {
  MutexLock lock(mutex_);
  upstream_.resize(num_upstreams);
}

void RouterMetrics::RecordRequest() {
  MutexLock lock(mutex_);
  ++requests_;
}

void RouterMetrics::RecordScatter(size_t legs) {
  MutexLock lock(mutex_);
  ++scatter_queries_;
  scatter_legs_ += legs;
}

void RouterMetrics::RecordUpstreamRequest(size_t i, bool follower) {
  MutexLock lock(mutex_);
  if (i >= upstream_.size()) return;
  if (follower) {
    ++upstream_[i].follower_requests;
  } else {
    ++upstream_[i].leader_requests;
  }
}

void RouterMetrics::RecordFailover() {
  MutexLock lock(mutex_);
  ++failovers_;
}

void RouterMetrics::RecordCancelFanout(size_t legs) {
  MutexLock lock(mutex_);
  cancel_fanout_ += legs;
}

void RouterMetrics::RecordMergeLatency(double seconds) {
  MutexLock lock(mutex_);
  merge_latency_.Record(seconds);
}

uint64_t RouterMetrics::requests() const {
  MutexLock lock(mutex_);
  return requests_;
}

uint64_t RouterMetrics::failovers() const {
  MutexLock lock(mutex_);
  return failovers_;
}

uint64_t RouterMetrics::upstream_requests(size_t i, bool follower) const {
  MutexLock lock(mutex_);
  if (i >= upstream_.size()) return 0;
  return follower ? upstream_[i].follower_requests
                  : upstream_[i].leader_requests;
}

std::string RouterMetrics::RenderPrometheus(
    const std::vector<UpstreamSnapshot>& upstreams) const {
  std::string out;
  out.reserve(4096);
  char line[256];
  MutexLock lock(mutex_);

  SimpleCounter(&out, "onex_router_requests_total",
                "Downstream queries admitted for routing.", requests_);
  SimpleCounter(&out, "onex_router_scatter_queries_total",
                "Queries scattered over more than one upstream dataset.",
                scatter_queries_);
  SimpleCounter(&out, "onex_router_failovers_total",
                "Mid-query re-submits to another replica.", failovers_);
  SimpleCounter(&out, "onex_router_cancel_fanout_total",
                "Upstream legs a downstream CANCEL was propagated to.",
                cancel_fanout_);

  Preamble(&out, "onex_router_upstream_requests_total", "counter",
           "Request legs by upstream and its probed role.");
  for (size_t i = 0; i < upstream_.size() && i < upstreams.size(); ++i) {
    const std::string address = upstreams[i].config.address();
    std::snprintf(line, sizeof(line),
                  "onex_router_upstream_requests_total{upstream=\"%s\","
                  "role=\"leader\"} %llu\n",
                  address.c_str(),
                  static_cast<unsigned long long>(
                      upstream_[i].leader_requests));
    out += line;
    std::snprintf(line, sizeof(line),
                  "onex_router_upstream_requests_total{upstream=\"%s\","
                  "role=\"follower\"} %llu\n",
                  address.c_str(),
                  static_cast<unsigned long long>(
                      upstream_[i].follower_requests));
    out += line;
  }

  HistogramFamily(&out, "onex_router_merge_latency_seconds",
                  "Admission-to-merged-final latency of routed queries.",
                  merge_latency_);

  Preamble(&out, "onex_router_upstream_healthy", "gauge",
           "1 when the upstream's last probe found it ready.");
  for (const UpstreamSnapshot& up : upstreams) {
    std::snprintf(line, sizeof(line),
                  "onex_router_upstream_healthy{upstream=\"%s\"} %d\n",
                  up.config.address().c_str(), up.health.ready ? 1 : 0);
    out += line;
  }
  Preamble(&out, "onex_router_upstream_lag_seconds", "gauge",
           "Probed replica lag of the upstream (-1 = leader/unknown).");
  for (const UpstreamSnapshot& up : upstreams) {
    std::snprintf(line, sizeof(line),
                  "onex_router_upstream_lag_seconds{upstream=\"%s\"} %.9g\n",
                  up.config.address().c_str(), up.health.replica_lag_s);
    out += line;
  }

  ProcessFamilies(&out, SampleProcessStats());
  return out;
}

}  // namespace router
}  // namespace onex
