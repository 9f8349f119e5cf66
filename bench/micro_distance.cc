// Micro-benchmarks for the distance kernels: ED, normalized ED, DTW
// (unconstrained / banded / early-abandoning, one candidate or a
// kDtwBatchLanes batch per call), envelope construction, and lower
// bounds across series lengths. Quantifies the cost ladder the pruning
// cascade exploits: LB_Kim << LB_Keogh << DTW. DTW rows report
// `ns_per_cell`, so the single and batched kernels compare directly.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "distance/dtw.h"
#include "distance/envelope.h"
#include "distance/euclidean.h"
#include "distance/lb_keogh.h"
#include "distance/lb_kim.h"
#include "util/rng.h"

namespace onex {
namespace {

std::vector<double> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.UniformDouble(0.0, 1.0);
  return v;
}

void BM_Euclidean(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomVector(n, 1), b = RandomVector(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EuclideanDistance(
        std::span<const double>(a), std::span<const double>(b)));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Euclidean)->Arg(32)->Arg(128)->Arg(512);

// DP cells one n x n DTW visits under `options` (the band's area).
double DtwCells(size_t n, const DtwOptions& options) {
  if (options.window < 0) return static_cast<double>(n * n);
  const size_t w = static_cast<size_t>(options.window);
  double cells = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i > w ? i - w : 0;
    const size_t hi = std::min(n - 1, i + w);
    cells += static_cast<double>(hi - lo + 1);
  }
  return cells;
}

// Reports time per DP cell as the `ns_per_cell` counter (printed with
// its SI prefix, e.g. 2.3ns).
void ReportNsPerCell(benchmark::State& state, double cells_per_iteration) {
  state.counters["ns_per_cell"] = benchmark::Counter(
      cells_per_iteration, benchmark::Counter::kIsIterationInvariantRate |
                               benchmark::Counter::kInvert);
}

void BM_DtwUnconstrained(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomVector(n, 1), b = RandomVector(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwDistance(std::span<const double>(a),
                                         std::span<const double>(b)));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
  ReportNsPerCell(state, DtwCells(n, DtwOptions{}));
}
BENCHMARK(BM_DtwUnconstrained)->Arg(32)->Arg(128)->Arg(512);

void BM_DtwBanded10Pct(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomVector(n, 1), b = RandomVector(n, 2);
  const DtwOptions options = DtwOptions::FromRatio(0.1, n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwDistance(std::span<const double>(a),
                                         std::span<const double>(b),
                                         options));
  }
  ReportNsPerCell(state, DtwCells(n, options));
}
BENCHMARK(BM_DtwBanded10Pct)->Arg(32)->Arg(128)->Arg(512);

// One DtwEarlyAbandonBatch call scoring kDtwBatchLanes candidates; the
// second argument is the band in percent of n (-1: unconstrained).
void BM_DtwBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DtwOptions options =
      DtwOptions::FromRatio(static_cast<double>(state.range(1)) / 100, n, n);
  const auto a = RandomVector(n, 1);
  std::vector<std::vector<double>> storage;
  std::vector<std::span<const double>> candidates;
  for (size_t c = 0; c < kDtwBatchLanes; ++c) {
    storage.push_back(RandomVector(n, 2 + c));
  }
  for (const auto& v : storage) candidates.emplace_back(v);
  std::vector<double> out(kDtwBatchLanes);
  const double infinity = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    DtwEarlyAbandonBatch(std::span<const double>(a), candidates, infinity,
                         out, options);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  ReportNsPerCell(state, DtwCells(n, options) * kDtwBatchLanes);
}
BENCHMARK(BM_DtwBatch)
    ->ArgNames({"n", "band_pct"})
    ->ArgsProduct({{32, 128, 512}, {-1, 10}});

void BM_DtwEarlyAbandonTight(benchmark::State& state) {
  // Threshold far below the true distance: the row-min abandon fires in
  // the first few rows.
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomVector(n, 1);
  auto b = RandomVector(n, 2);
  for (auto& x : b) x += 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwEarlyAbandon(std::span<const double>(a),
                                             std::span<const double>(b),
                                             0.5));
  }
}
BENCHMARK(BM_DtwEarlyAbandonTight)->Arg(32)->Arg(128)->Arg(512);

void BM_EnvelopeLemire(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto v = RandomVector(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeEnvelope(std::span<const double>(v), n / 10));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EnvelopeLemire)->Arg(128)->Arg(1024)->Arg(8192);

void BM_LbKim(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomVector(n, 1), b = RandomVector(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LbKim(std::span<const double>(a), std::span<const double>(b)));
  }
}
BENCHMARK(BM_LbKim)->Arg(128)->Arg(512);

void BM_LbKimFl(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomVector(n, 1), b = RandomVector(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LbKimFl(std::span<const double>(a), std::span<const double>(b)));
  }
}
BENCHMARK(BM_LbKimFl)->Arg(128)->Arg(512);

void BM_LbKeogh(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomVector(n, 1), b = RandomVector(n, 2);
  const Envelope env = ComputeEnvelope(std::span<const double>(b), n / 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LbKeogh(std::span<const double>(a), env));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LbKeogh)->Arg(128)->Arg(512);

}  // namespace
}  // namespace onex

BENCHMARK_MAIN();
