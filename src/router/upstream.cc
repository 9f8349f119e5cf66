#include "router/upstream.h"

#include <chrono>
#include <cstdlib>
#include <utility>

namespace onex {
namespace router {

UpstreamPool::UpstreamPool(UpstreamPoolOptions options, RoutingTable* table)
    : options_(options), table_(table) {
  MutexLock lock(mutex_);
  links_.resize(table_->size());
}

UpstreamPool::~UpstreamPool() { Stop(); }

void UpstreamPool::Start() {
  for (size_t i = 0; i < table_->size(); ++i) ProbeNow(i);
  probe_threads_.reserve(table_->size());
  for (size_t i = 0; i < table_->size(); ++i) {
    probe_threads_.emplace_back([this, i] { ProbeLoop(i); });
  }
}

void UpstreamPool::Stop() {
  {
    MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  stop_cv_.NotifyAll();
  for (std::thread& t : probe_threads_) {
    if (t.joinable()) t.join();
  }
  probe_threads_.clear();
  // Close the query links after the probes: Close joins each link's
  // demux thread, and nothing submits anymore once the router's
  // sessions are down (the router stops sessions before the pool).
  std::vector<std::shared_ptr<server::Client>> links;
  {
    MutexLock lock(mutex_);
    links.swap(links_);
  }
  for (auto& link : links) {
    if (link) link->Close();
  }
}

Result<server::Client> UpstreamPool::Dial(size_t i) const {
  const UpstreamConfig config = table_->Config(i);
  server::ClientOptions client_options;
  client_options.connect_timeout_ms = options_.connect_timeout_ms;
  client_options.io_timeout_ms = options_.io_timeout_ms;
  return server::Client::Connect(config.host, config.port, client_options);
}

void UpstreamPool::ProbeNow(size_t i) {
  UpstreamHealth health;
  std::vector<std::string> datasets;
  auto client = Dial(i);
  if (!client.ok()) {
    health.error = client.status().message();
    table_->Update(i, health, std::move(datasets));
    return;
  }
  auto health_reply = client.value().Roundtrip("health");
  if (!health_reply.ok()) {
    health.error = health_reply.status().message();
    table_->Update(i, health, std::move(datasets));
    return;
  }
  health = ParseHealth(health_reply.value());
  auto list_reply = client.value().Roundtrip("list");
  if (list_reply.ok()) {
    datasets = ParseDatasets(list_reply.value());
  } else {
    health.error = list_reply.status().message();
  }
  client.value().Close();
  table_->Update(i, health, std::move(datasets));
}

Result<std::shared_ptr<server::Client>> UpstreamPool::QueryLink(size_t i) {
  {
    MutexLock lock(mutex_);
    if (i >= links_.size()) {
      return Status::InvalidArgument("no such upstream");
    }
    if (links_[i]) return links_[i];
  }
  auto dialed = Dial(i);
  if (!dialed.ok()) return dialed.status();
  auto link = std::make_shared<server::Client>(std::move(dialed).value());
  {
    MutexLock lock(mutex_);
    if (!stopping_) {
      if (links_[i]) return links_[i];  // Lost the dial race; reuse theirs.
      links_[i] = link;
      return link;
    }
  }
  // Late dial during shutdown: don't park a live demux in the pool.
  link->Close();
  return Status::IOError("router shutting down");
}

void UpstreamPool::DropLink(size_t i, const server::Client* dead) {
  std::shared_ptr<server::Client> doomed;
  {
    MutexLock lock(mutex_);
    if (i >= links_.size() || links_[i].get() != dead) return;
    doomed = std::move(links_[i]);
  }
  if (doomed) doomed->Close();
}

UpstreamHealth UpstreamPool::ParseHealth(const server::WireResponse& reply) {
  UpstreamHealth health;
  if (!reply.ok || reply.kind != "Health") {
    health.error = "malformed HEALTH reply";
    return health;
  }
  health.reachable = true;
  auto flag = [&](const char* key) {
    auto it = reply.header.find(key);
    return it != reply.header.end() && it->second == "1";
  };
  health.live = flag("live");
  health.ready = flag("ready");
  for (const std::string& row : reply.payload) {
    const auto kv = server::ParseKeyValues(row);
    auto name = kv.find("name");
    if (name == kv.end() || name->second != "replica_lag") continue;
    health.follower = true;
    auto lag = kv.find("lag_s");
    if (lag != kv.end()) {
      health.replica_lag_s = std::strtod(lag->second.c_str(), nullptr);
    }
  }
  return health;
}

std::vector<std::string> UpstreamPool::ParseDatasets(
    const server::WireResponse& reply) {
  std::vector<std::string> datasets;
  if (!reply.ok || reply.kind != "List") return datasets;
  for (const std::string& row : reply.payload) {
    if (row.rfind("dataset ", 0) != 0) continue;
    const auto kv = server::ParseKeyValues(row);
    auto name = kv.find("name");
    if (name != kv.end()) datasets.push_back(name->second);
  }
  return datasets;
}

void UpstreamPool::ProbeLoop(size_t i) {
  const auto interval = std::chrono::milliseconds(options_.probe_interval_ms);
  while (true) {
    {
      MutexLock lock(mutex_);
      if (stopping_) return;
      stop_cv_.WaitFor(mutex_, interval);
      if (stopping_) return;
    }
    ProbeNow(i);
  }
}

}  // namespace router
}  // namespace onex
