// The workloads' inputs. The program sees only the datasets, reads and
// appends built here. Each workload's data, the base and the series
// appended to it, comes from fixed seeds, so every run holds the same
// data; --seed draws the query stream. The mix of query kinds and
// lengths repeats in a fixed pattern, so runs differ in query values
// only. A load of S
// seconds at R reads/s over P passes holds S * R / P distinct reads.
// NOTES.md says why each workload exists, and why ingest runs by name
// but is not in BENCHMARK.json.
#include <algorithm>

#include "bench/common.h"
#include "datagen/registry.h"
#include "dataset/normalize.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {

namespace {

using onex::Dataset;
using onex::QueryRequest;

constexpr uint64_t kBaseSeed = 42;
/// Seed of the appended series. With them drawn per run, the appended
/// dataset's grouping, and with it the cost of replaying its WAL tail,
/// moved scatter's reopen_s by a fifth from seed to seed.
constexpr uint64_t kAppendSeed = kBaseSeed + 2;

/// Distinct reads of one pass of a `seconds` load.
size_t DistinctReads(const WorkloadSpec& spec, double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(seconds * spec.read_rate / spec.passes));
}

Dataset Generate(const std::string& generator, size_t series, size_t length,
                 uint64_t seed) {
  onex::GenOptions gen;
  gen.num_series = series;
  gen.length = length;
  gen.seed = seed;
  return onex::MakeDatasetByName(generator, gen).value();
}

/// Fresh series of the same generator, scaled into the base's min-max
/// range so they look like the data already held.
std::vector<std::vector<double>> FreshSeries(const std::string& generator,
                                             size_t count, size_t length,
                                             uint64_t seed, double lo,
                                             double hi) {
  Dataset fresh = Generate(generator, count, length, seed);
  std::vector<std::vector<double>> out;
  for (size_t i = 0; i < fresh.size(); ++i) {
    const auto view = fresh[i].Subsequence(0, fresh[i].length());
    std::vector<double> values(view.begin(), view.end());
    onex::MinMaxNormalize(&values, lo, hi);
    out.push_back(std::move(values));
  }
  return out;
}

/// The paper's query method (bench/common MakeQueries): lengths sweep
/// the indexed grid; half are subsequences of the data, half are fresh
/// series of the same generator.
std::vector<std::vector<double>> PaperQueries(const Dataset& data,
                                              const std::string& generator,
                                              const onex::LengthSpec& lengths,
                                              size_t count, uint64_t seed) {
  onex::bench::BenchConfig config;
  config.num_queries = count;
  config.lengths = lengths;
  config.max_length = data.MaxLength();
  config.seed = seed;
  std::vector<std::vector<double>> out;
  for (auto& q : onex::bench::MakeQueries(data, generator, config)) {
    out.push_back(std::move(q.values));
  }
  return out;
}

// explore: one analyst's session over a paper evaluation set.
void Explore(uint64_t seed, double seconds, WorkloadSpec* spec) {
  constexpr size_t kSeries = 100, kLength = 128;
  spec->options.lengths = onex::LengthSpec{16, kLength, 16};
  Dataset data = Generate("TwoPattern", kSeries, kLength, kBaseSeed);
  const auto [lo, hi] = onex::MinMaxNormalize(&data);
  onex::Rng rng(seed ^ 0x51ED);
  const auto grid = spec->options.lengths.LengthsFor(kLength);
  // Four passes at 150 reads/s: a 30 s run holds 1125 distinct reads,
  // so p99 has eleven beyond it, and a read's best of four passes is
  // more its own cost and less the host's (NOTES.md, Steadiness).
  spec->read_rate = 150;
  spec->passes = 4;
  // Per 45 reads: 15 exact and 13 any-length best matches, 13 k-sim, one
  // range scan, two Q2 and one Q3. 45 and the 8 lengths are coprime, so
  // every kind meets every length.
  const auto queries = PaperQueries(data, "TwoPattern", spec->options.lengths,
                                    DistinctReads(*spec, seconds), seed);
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::vector<double>& q = queries[i];
    const size_t len = q.size();
    const size_t slot = i % 45;
    if (slot < 15) {
      spec->reads.push_back(onex::BestMatchRequest{q, len});
    } else if (slot < 28) {
      spec->reads.push_back(onex::BestMatchRequest{q, 0});
    } else if (slot < 41) {
      spec->reads.push_back(onex::KSimilarRequest{q, 5, len});
    } else if (slot == 41) {
      spec->reads.push_back(onex::RangeWithinRequest{q, 0.1, len, false});
    } else if (slot < 44) {
      spec->reads.push_back(onex::SeasonalRequest{
          static_cast<uint32_t>(rng.Uniform(kSeries)), grid[i % grid.size()]});
    } else {
      spec->reads.push_back(onex::RecommendRequest{std::nullopt, 0});
    }
  }
  // No appends over the wire: one takes over a second on this base
  // (NOTES.md). The traced run times these on an in-memory twin.
  spec->appends = FreshSeries("TwoPattern", 2, kLength, kAppendSeed, lo, hi);
  spec->datasets.emplace_back("explore", std::move(data));
  spec->read_target = spec->append_target = "explore";
  spec->check = WorkloadSpec::Check::kEngineParity;
}

// scatter: short Q1/Q1k reads fanned out over four cache-sized shards.
void Scatter(uint64_t seed, double seconds, WorkloadSpec* spec) {
  constexpr size_t kShards = 4, kPerShard = 40, kLength = 64;
  spec->options.lengths = onex::LengthSpec{8, 16, 4};
  // Normalize the union before splitting so every shard shares one scale
  // and per-shard distances compare across shards.
  Dataset all =
      Generate("TwoPattern", kShards * kPerShard, kLength, kBaseSeed);
  const auto [lo, hi] = onex::MinMaxNormalize(&all);
  // As on explore. The Nagle stall on the router's links holds each read
  // for about one send interval (NOTES.md), 6.7 ms at this rate.
  spec->read_rate = 150;
  spec->passes = 4;
  // Q1 and Q1k alternate; the lengths (8, 12, 16) cycle under them.
  size_t i = 0;
  for (auto& q : PaperQueries(all, "TwoPattern", spec->options.lengths,
                              DistinctReads(*spec, seconds), seed)) {
    const size_t len = q.size();
    if (i++ % 2 == 0) {
      spec->reads.push_back(onex::BestMatchRequest{std::move(q), len});
    } else {
      spec->reads.push_back(onex::KSimilarRequest{std::move(q), 5, len});
    }
  }
  for (size_t s = 0; s < kShards; ++s) {
    Dataset shard("shard-" + std::to_string(s));
    for (size_t i = 0; i < kPerShard; ++i) shard.Add(all[s * kPerShard + i]);
    spec->datasets.emplace_back(shard.name(), std::move(shard));
  }
  // Routed appends go to a fifth dataset on the same node, outside the
  // shard-set, so the reads' answers stay fixed while appends run beside
  // them and every routed answer can be checked after the load.
  Dataset inbox("inbox");
  for (auto& values :
       FreshSeries("TwoPattern", kPerShard, kLength, kBaseSeed + 1, lo, hi)) {
    inbox.Add(onex::TimeSeries(std::move(values)));
  }
  spec->datasets.emplace_back(inbox.name(), std::move(inbox));
  spec->routed = true;
  spec->repeats = 15;
  spec->read_target = "shard-*";
  // Appends run beside the reads, spread over the whole load rather than
  // bunched after it.
  spec->append_target = "inbox";
  spec->append_rate = 5;
  spec->appends =
      FreshSeries("TwoPattern", 1000, kLength, kAppendSeed, lo, hi);
  // No fsync per append: the routed append measures the router and the
  // rebuild, not the disk. Thresholds low enough that a run completes
  // several delta checkpoints of `inbox` and a chain compaction.
  spec->storage.sync_appends = false;
  spec->storage.checkpoint_wal_records = 12;
  spec->storage.max_delta_chain_length = 3;
  spec->check = WorkloadSpec::Check::kMergeParity;
}

// ingest: durable appends beside explore-style Q1 reads.
void Ingest(uint64_t seed, double seconds, WorkloadSpec* spec) {
  constexpr size_t kSeries = 200, kLength = 128;
  spec->options.lengths = onex::LengthSpec{16, kLength, 16};
  Dataset data = Generate("RandomWalk", kSeries, kLength, kBaseSeed);
  const auto [lo, hi] = onex::MinMaxNormalize(&data);
  // Two exact best matches, then one any-length best match; 3 and the 8
  // lengths are coprime, so both kinds meet every length. No k-sim: on
  // this base it costs about four best matches, and the CPU it would take
  // from the two cores makes every latency here track the machine's load.
  spec->read_rate = 50;
  size_t i = 0;
  for (auto& q : PaperQueries(data, "RandomWalk", spec->options.lengths,
                              DistinctReads(*spec, seconds), seed)) {
    const size_t len = i++ % 3 == 2 ? 0 : q.size();
    spec->reads.push_back(onex::BestMatchRequest{std::move(q), len});
  }
  spec->append_rate = 2.5;
  spec->repeats = 9;
  spec->appends =
      FreshSeries("RandomWalk", 1000, kLength, kAppendSeed, lo, hi);
  // fsync on every append (the default) and thresholds low enough that a
  // run completes several delta checkpoints and a chain compaction.
  spec->storage.checkpoint_wal_records = 12;
  spec->storage.max_delta_chain_length = 3;
  spec->datasets.emplace_back("ingest", std::move(data));
  spec->read_target = spec->append_target = "ingest";
  spec->check = WorkloadSpec::Check::kNone;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  WorkloadSpec* spec) {
  spec->name = name;
  if (name == "explore") {
    Explore(seed, seconds, spec);
  } else if (name == "scatter") {
    Scatter(seed, seconds, spec);
  } else if (name == "ingest") {
    Ingest(seed, seconds, spec);
  } else {
    return false;
  }
  // Probes: the first Q1-shaped reads, asked again of reopened and
  // replicated data.
  for (const QueryRequest& read : spec->reads) {
    if (spec->probes.size() == 16) break;
    if (!std::holds_alternative<onex::SeasonalRequest>(read) &&
        !std::holds_alternative<onex::RecommendRequest>(read)) {
      spec->probes.push_back(read);
    }
  }
  return true;
}

}  // namespace perfbench
