// Tests for the metrics surface grown by protocol v5: Prometheus text
// exposition grammar over RenderPrometheus, LatencyHistogram percentile
// interpolation edges (empty / single-sample / overflow), the TRACE
// block rendering with its cascade invariant, and a v4-session golden-
// bytes regression proving trace-less rendering is byte-identical.

#include "server/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "server/protocol.h"

namespace onex {
namespace server {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Metric name of one sample line (strips labels and the value).
std::string SampleName(const std::string& line) {
  const size_t brace = line.find('{');
  const size_t space = line.find(' ');
  return line.substr(0, std::min(brace, space));
}

// --------------------------------------- histogram interpolation edges

TEST(LatencyHistogramTest, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(50.0), 0.0);
  EXPECT_EQ(h.Percentile(99.9), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(LatencyHistogramTest, SingleSampleInterpolatesWithinItsBucket) {
  LatencyHistogram h;
  const double sample = 250e-6;  // Bucket (199.5µs, 251.2µs].
  h.Record(sample);
  // Find the winning bucket's edges the same way Record does.
  size_t bucket = 0;
  while (bucket + 1 < LatencyHistogram::kBuckets &&
         sample > LatencyHistogram::UpperBound(bucket)) {
    ++bucket;
  }
  const double lower = LatencyHistogram::UpperBound(bucket - 1);
  const double upper = LatencyHistogram::UpperBound(bucket);
  // p=50 sits mid-bucket; only p=100 touches the upper edge. The old
  // upper-edge rule returned `upper` for every percentile (~26% high).
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), lower + 0.5 * (upper - lower));
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), upper);
  EXPECT_GT(h.Percentile(50.0), lower);
  EXPECT_LT(h.Percentile(50.0), upper);
}

TEST(LatencyHistogramTest, FirstBucketInterpolatesFromZero) {
  LatencyHistogram h;
  h.Record(0.0);  // Bucket 0: (0, 1µs].
  EXPECT_DOUBLE_EQ(h.Percentile(50.0),
                   0.5 * LatencyHistogram::kFirstUpperBound);
}

TEST(LatencyHistogramTest, OverflowSamplesClampToLastBucket) {
  LatencyHistogram h;
  h.Record(1e9);  // Far past the ~100s top bound.
  const double top =
      LatencyHistogram::UpperBound(LatencyHistogram::kBuckets - 1);
  const double below =
      LatencyHistogram::UpperBound(LatencyHistogram::kBuckets - 2);
  EXPECT_GT(h.Percentile(50.0), below);
  EXPECT_LE(h.Percentile(50.0), top);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), top);
}

TEST(LatencyHistogramTest, PercentilesAreMonotonicAcrossBuckets) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.Record(100e-6);
  for (int i = 0; i < 9; ++i) h.Record(10e-3);
  h.Record(1.0);
  const double p50 = h.Percentile(50.0);
  const double p95 = h.Percentile(95.0);
  const double p99 = h.Percentile(99.0);
  const double p999 = h.Percentile(99.9);
  EXPECT_LT(p50, p95);
  EXPECT_LT(p95, p99);
  EXPECT_LT(p99, p999);
  // The tail sample dominates p99.9: it must land in the 1s bucket.
  EXPECT_GT(p999, 0.5);
}

// ------------------------------------------- Prometheus grammar checks

TEST(PrometheusRenderTest, OutputObeysExpositionGrammar) {
  ServerMetrics metrics;
  metrics.RecordConnection();
  metrics.RecordQuery(QueryKind::kBestMatch, 250e-6, true);
  metrics.RecordQuery(QueryKind::kKSimilar, 1e-3, false);
  CascadeStats cascade;
  cascade.candidates = 100;
  cascade.pruned_kim = 60;
  cascade.pruned_keogh = 25;
  cascade.dtw_abandoned = 5;
  cascade.dtw_completed = 10;
  metrics.RecordQueryBreakdown(50e-6, 200e-6, cascade);
  metrics.RecordSlowQuery();

  GaugeSnapshot gauges;
  gauges.queue_depth = 3;
  gauges.workers_busy = 2;
  gauges.workers_total = 4;
  gauges.storage.checkpoint_age_seconds = 12.5;
  const std::string out = metrics.RenderPrometheus(gauges);

  // Grammar: every sample line's base name must be declared by a # TYPE
  // line (histogram/summary samples match their family's name prefix),
  // and every family has exactly one HELP and one TYPE.
  std::map<std::string, std::string> declared_types;
  std::set<std::string> helped;
  for (const std::string& line : Lines(out)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition output";
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string name =
          line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(helped.insert(name).second) << "duplicate HELP " << name;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t space = line.find(' ', 7);
      const std::string name = line.substr(7, space - 7);
      const std::string type = line.substr(space + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram" || type == "summary")
          << line;
      EXPECT_TRUE(declared_types.emplace(name, type).second)
          << "duplicate TYPE " << name;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment line: " << line;
    std::string name = SampleName(line);
    if (declared_types.count(name) == 0) {
      // _bucket/_sum/_count samples belong to their family name.
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const size_t at = name.rfind(suffix);
        if (at != std::string::npos &&
            at == name.size() - std::string(suffix).size()) {
          name = name.substr(0, at);
          break;
        }
      }
    }
    EXPECT_EQ(declared_types.count(name), 1u)
        << "sample without TYPE declaration: " << line;
  }

  // Counters end in _total (exposition-format naming convention).
  for (const auto& [name, type] : declared_types) {
    if (type == "counter") {
      EXPECT_TRUE(name.size() > 6 &&
                  name.compare(name.size() - 6, 6, "_total") == 0)
          << "counter without _total suffix: " << name;
    }
  }

  // Spot checks: the new surfaces are present with the recorded values.
  EXPECT_NE(out.find("onex_requests_total{kind=\"BestMatch\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("onex_request_errors_total{kind=\"KSimilar\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("onex_cascade_candidates_total 100\n"),
            std::string::npos);
  EXPECT_NE(out.find("onex_slow_queries_total 1\n"), std::string::npos);
  EXPECT_NE(out.find("onex_queue_depth 3\n"), std::string::npos);
  EXPECT_NE(out.find("onex_checkpoint_age_seconds 12.5\n"),
            std::string::npos);
  EXPECT_NE(out.find("quantile=\"0.999\""), std::string::npos);
}

TEST(PrometheusRenderTest, HistogramBucketsAreCumulativeWithInf) {
  ServerMetrics metrics;
  CascadeStats none;
  metrics.RecordQueryBreakdown(10e-6, 100e-6, none);
  metrics.RecordQueryBreakdown(10e-6, 5e-3, none);
  metrics.RecordQueryBreakdown(2e-3, 5e-3, none);
  const std::string out = metrics.RenderPrometheus(GaugeSnapshot{});

  // Within each histogram family the _bucket counts must be
  // monotonically non-decreasing and the +Inf bucket must equal _count.
  for (const char* family : {"onex_queue_wait_seconds", "onex_exec_seconds"}) {
    uint64_t last = 0;
    uint64_t inf = 0;
    uint64_t count = 0;
    bool saw_inf = false;
    for (const std::string& line : Lines(out)) {
      if (line.rfind(std::string(family) + "_bucket{le=\"+Inf\"} ", 0) == 0) {
        inf = std::stoull(line.substr(line.rfind(' ') + 1));
        saw_inf = true;
      } else if (line.rfind(std::string(family) + "_bucket{", 0) == 0) {
        const uint64_t v = std::stoull(line.substr(line.rfind(' ') + 1));
        EXPECT_GE(v, last) << family << " buckets not cumulative: " << line;
        last = v;
      } else if (line.rfind(std::string(family) + "_count ", 0) == 0) {
        count = std::stoull(line.substr(line.rfind(' ') + 1));
      }
    }
    EXPECT_TRUE(saw_inf) << family << " missing le=\"+Inf\" bucket";
    EXPECT_EQ(inf, count) << family;
    EXPECT_EQ(count, 3u) << family;
  }
}

// -------------------------------------------- TRACE block + v4 golden

TEST(TraceBlockTest, TraceLinesCarryStageAndCascadeWithInvariant) {
  QueryResponse response;
  response.kind = QueryKind::kBestMatch;
  response.payload = MatchResult{{QueryMatch{{2, 3, 8}, 0.125, 4, false}}};
  response.latency_seconds = 500e-6;
  response.stats.queue_wait_seconds = 100e-6;
  response.stats.rep_scan_seconds = 200e-6;
  response.stats.member_scan_seconds = 150e-6;
  response.stats.cascade.candidates = 40;
  response.stats.cascade.pruned_kim = 20;
  response.stats.cascade.pruned_keogh = 12;
  response.stats.cascade.dtw_abandoned = 3;
  response.stats.cascade.dtw_completed = 5;
  ASSERT_TRUE(response.stats.cascade.Consistent());

  const std::string out = RenderResponse(response, 7, /*trace=*/true);
  EXPECT_NE(out.find("trace stage queue_wait_us=100 rep_scan_us=200 "
                     "member_scan_us=150 knn_us=0 refine_us=0 exec_us=500\n"),
            std::string::npos)
      << out;
  // seen == kim_pruned + keogh_pruned + dtw_evaluated; dtw_evaluated
  // folds abandoned + completed; ratio = 1 - 8/40.
  EXPECT_NE(out.find("trace cascade seen=40 kim_pruned=20 keogh_pruned=12 "
                     "dtw_evaluated=8 early_abandoned=3 "
                     "pruning_ratio=0.8000\n"),
            std::string::npos)
      << out;
}

TEST(TraceBlockTest, EmptyCascadeRendersZeroRatio) {
  QueryResponse response;
  response.kind = QueryKind::kSeasonal;
  response.payload = SeasonalResult{};
  const std::string out = RenderResponse(response, 0, /*trace=*/true);
  EXPECT_NE(out.find("trace cascade seen=0 kim_pruned=0 keogh_pruned=0 "
                     "dtw_evaluated=0 early_abandoned=0 "
                     "pruning_ratio=0.0000\n"),
            std::string::npos)
      << out;
}

TEST(TraceBlockTest, V4SessionBytesAreUnchangedWithoutTraceAttr) {
  // Golden v4 bytes: a session that never sends trace=1 must see
  // byte-identical replies even when the response carries stage timings
  // and cascade counters internally.
  QueryResponse response;
  response.kind = QueryKind::kBestMatch;
  response.payload = MatchResult{{QueryMatch{{2, 3, 8}, 0.125, 4, false}}};
  response.stats.lengths_scanned = 1;
  response.stats.reps_compared = 2;
  response.stats.queue_wait_seconds = 123e-6;  // Populated but invisible.
  response.stats.cascade.candidates = 99;
  response.stats.cascade.dtw_completed = 99;
  response.latency_seconds = 152e-6;
  const std::string golden =
      "OK BestMatch id=7 matches=1 latency_us=152\n"
      "stats lengths_scanned=1 reps_compared=2 reps_pruned=0 "
      "members_compared=0 lemma2_admitted=0\n"
      "match series=2 start=3 length=8 distance=0.125 group=4 bound=0\n"
      ".\n";
  EXPECT_EQ(RenderResponse(response, 7), golden);
  EXPECT_EQ(RenderResponse(response, 7, /*trace=*/false), golden);
}

TEST(TraceBlockTest, TraceAttributeParsesAndRoundTrips) {
  RequestAttrs attrs;
  auto parsed = ParseRequestLine("trace=1 q1 8 0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8",
                                 &attrs);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(attrs.trace);
  // Excluded from any() on purpose: rendering is the only consumer, so
  // a lone trace=1 must not force ExecContext plumbing.
  EXPECT_FALSE(attrs.any());

  attrs = RequestAttrs{};
  parsed = ParseRequestLine("trace=0 q1 8 0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8",
                            &attrs);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(attrs.trace);

  EXPECT_FALSE(ParseRequestLine("trace=2 q1 8 0.1", &attrs).ok());
  EXPECT_FALSE(ParseRequestLine("trace=1 stats", &attrs).ok());

  RequestAttrs render;
  render.id = 7;
  render.trace = true;
  EXPECT_EQ(RenderRequestLine(QueryRequest(BestMatchRequest{{1.0, 2.0}, 0}),
                              render),
            "id=7 trace=1 q1 any 1,2");
}

TEST(TraceBlockTest, MetricsVerbParses) {
  auto parsed = ParseRequestLine("metrics");
  ASSERT_TRUE(parsed.ok());
  const auto* control = std::get_if<ControlRequest>(&parsed.value());
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->verb, ControlVerb::kMetrics);
  EXPECT_FALSE(ParseRequestLine("metrics now").ok());
}

}  // namespace
}  // namespace server
}  // namespace onex
