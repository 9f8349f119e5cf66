#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "distance/dtw.h"
#include "distance/euclidean.h"
#include "distance/lb_keogh.h"
#include "distance/lb_kim.h"
#include "router/merge.h"
#include "server/client.h"
#include "util/rng.h"

namespace perfbench {

namespace {

struct Pair {
  std::span<const double> query;
  std::span<const double> representative;
  const onex::Envelope* envelope;
  std::span<const double> member;
  int window;
};

/// Runs `pass` over the pairs until at least 50 ms have gone by; returns
/// ns per unit, where one pass does `units_per_pass` units.
template <class F>
double NsPerUnit(const std::string& span, double units_per_pass, Tracer* tracer,
                 F pass) {
  ScopedSpan scoped(tracer, span);
  double sink = 0;
  size_t passes = 0;
  const auto start = Clock::now();
  auto now = start;
  while (Seconds(start, now) < 0.05) {
    sink += pass();
    ++passes;
    now = Clock::now();
  }
  // Keep the results observable so no pass is optimized away.
  if (sink == -1.0) std::fprintf(stderr, "%g\n", sink);
  return Seconds(start, now) * 1e9 / (units_per_pass * passes);
}

std::span<const double> QueryOf(const onex::QueryRequest& read) {
  if (const auto* q = std::get_if<onex::BestMatchRequest>(&read)) {
    return q->query;
  }
  if (const auto* q = std::get_if<onex::KSimilarRequest>(&read)) {
    return q->query;
  }
  if (const auto* q = std::get_if<onex::RangeWithinRequest>(&read)) {
    return q->query;
  }
  return {};
}

}  // namespace

KernelCosts MeasureKernels(const onex::Engine& engine,
                           const std::vector<onex::QueryRequest>& reads,
                           uint64_t seed, Tracer* tracer) {
  const onex::OnexBase& base = engine.base();
  onex::Rng rng(seed ^ 0xD157);
  std::vector<Pair> pairs;
  for (const auto& read : reads) {
    if (pairs.size() == 256) break;
    const auto query = QueryOf(read);
    const onex::GtiEntry* entry = base.gti().Find(query.size());
    if (query.empty() || entry == nullptr || entry->groups.empty()) continue;
    const onex::LsiEntry& group =
        entry->groups[rng.Uniform(entry->groups.size())];
    const onex::SubsequenceRef& ref =
        group.members[rng.Uniform(group.members.size())].ref;
    const auto dtw = onex::DtwOptions::FromRatio(
        base.options().window_ratio, query.size(), query.size());
    pairs.push_back(Pair{query, group.representative, &group.envelope,
                         ref.View(base.dataset()), dtw.window});
  }
  KernelCosts costs;
  if (pairs.empty()) return costs;
  double cells = 0, points = 0;
  for (const Pair& p : pairs) {
    const long n = static_cast<long>(p.query.size());
    const long w = p.window < 0 ? n : p.window;
    for (long i = 0; i < n; ++i) {
      cells += static_cast<double>(std::min(n - 1, i + w) -
                                   std::max(0L, i - w) + 1);
    }
    points += static_cast<double>(n);
  }
  costs.dtw_ns_per_cell = NsPerUnit("distance.dtw", cells, tracer, [&] {
    double sum = 0;
    for (const Pair& p : pairs) {
      sum += onex::DtwDistance(p.query, p.representative,
                               onex::DtwOptions{p.window});
    }
    return sum;
  });
  costs.lb_keogh_ns_per_point =
      NsPerUnit("distance.lb_keogh", points, tracer, [&] {
        double sum = 0;
        for (const Pair& p : pairs) sum += onex::LbKeogh(p.query, *p.envelope);
        return sum;
      });
  costs.lb_kim_ns_per_call = NsPerUnit(
      "distance.lb_kim", static_cast<double>(pairs.size()), tracer, [&] {
        double sum = 0;
        for (const Pair& p : pairs) {
          sum += onex::LbKim(p.query, p.representative);
        }
        return sum;
      });
  costs.ed_ns_per_point = NsPerUnit("distance.ed", points, tracer, [&] {
    double sum = 0;
    for (const Pair& p : pairs) {
      sum += onex::SquaredEuclideanEarlyAbandon(
          p.query, p.member, std::numeric_limits<double>::infinity());
    }
    return sum;
  });
  return costs;
}

RouterProbe ProbeRouter(uint16_t router_port, uint16_t node_port,
                        const std::string& target,
                        const std::vector<std::string>& legs,
                        const std::vector<onex::QueryRequest>& reads,
                        size_t limit, Tracer* tracer) {
  using onex::server::Client;
  RouterProbe probe;
  probe.legs_per_read = static_cast<double>(legs.size());
  auto routed = Client::Connect("127.0.0.1", router_port);
  auto direct = Client::Connect("127.0.0.1", node_port);
  if (!routed.ok() || !direct.ok() ||
      !routed.value().Roundtrip("use " + target).ok()) {
    probe.attempted = probe.failed = 1;
    return probe;
  }
  for (size_t i = 0; i < reads.size() && probe.hop_ms.size() < limit; ++i) {
    const onex::QueryRequest& read = reads[i];
    if (!onex::router::IsMatchShaped(read)) continue;
    ++probe.attempted;
    const uint64_t root = tracer->Begin("bench.router_probe", 0, i + 1);
    const auto t0 = Clock::now();
    auto routed_reply =
        routed.value().Roundtrip(onex::server::RenderRequestLine(read));
    const auto t1 = Clock::now();
    tracer->Add("router.routed", t0, t1, root, i + 1);
    bool ok = routed_reply.ok() && routed_reply.value().ok;
    double slowest_leg = 0;
    onex::router::MergedStats stats;
    std::vector<std::vector<std::string>> leg_rows(legs.size());
    std::vector<std::string> extra;
    std::string kind;
    for (size_t leg = 0; leg < legs.size(); ++leg) {
      onex::server::RequestAttrs attrs;
      attrs.dataset = legs[leg];
      const auto d0 = Clock::now();
      auto reply = direct.value().Roundtrip(
          onex::server::RenderRequestLine(read, attrs));
      const auto d1 = Clock::now();
      tracer->Add("server.direct_leg", d0, d1, root, i + 1);
      slowest_leg = std::max(slowest_leg, Seconds(d0, d1));
      if (!reply.ok() || !reply.value().ok) {
        ok = false;
        continue;
      }
      kind = reply.value().kind;
      onex::router::SplitFinalPayload(reply.value().payload, &stats,
                                      &leg_rows[leg], &extra);
    }
    tracer->End(root);
    if (!ok) {
      ++probe.failed;
      continue;
    }
    probe.hop_ms.push_back((Seconds(t0, t1) - slowest_leg) * 1e3);
    // One merge takes microseconds; repeat it for a readable clock.
    constexpr int kRepeats = 50;
    const auto m0 = Clock::now();
    for (int r = 0; r < kRepeats; ++r) {
      const auto rows = onex::router::MergeMatchRows(
          leg_rows, onex::router::MergeKeepLimit(read));
      onex::router::RenderMergedFinal(kind, i + 1, rows, 0, false, "", stats,
                                      extra);
    }
    const auto m1 = Clock::now();
    tracer->Add("router.merge", m0, m1, 0, i + 1);
    probe.merge_us.push_back(Seconds(m0, m1) * 1e6 / kRepeats);
  }
  return probe;
}

}  // namespace perfbench
