// Lower-bound tightness. Admissible bounds are only useful if they are
// *tight* (close to the true DTW) and *cheap*; this bench reports, for
// each bound, the mean tightness ratio LB/DTW on random data — one of
// the numbers behind the Sec. 5.3 design choices. The share of a scan's
// candidates each cascade stage prunes is perfbench's
// core.pruned_*_share rows, measured on the production cascade.
// BM_ComputeEnvelope times the envelope kernel that the build, every
// append's re-freeze and every snapshot load run once per representative
// (`ns_per_point` is seconds per point, printed with an SI prefix).

#include <benchmark/benchmark.h>

#include <vector>

#include "distance/dtw.h"
#include "distance/envelope.h"
#include "distance/lb_keogh.h"
#include "distance/lb_kim.h"
#include "util/rng.h"

namespace onex {
namespace {

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->UniformDouble(0.0, 1.0);
  return v;
}

void BM_TightnessLbKim(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  double ratio_sum = 0.0;
  size_t count = 0;
  for (auto _ : state) {
    const auto a = RandomVector(n, &rng);
    const auto b = RandomVector(n, &rng);
    const double dtw = DtwDistance(std::span<const double>(a),
                                   std::span<const double>(b));
    const double lb =
        LbKim(std::span<const double>(a), std::span<const double>(b));
    if (dtw > 0) {
      ratio_sum += lb / dtw;
      ++count;
    }
    benchmark::DoNotOptimize(lb);
  }
  state.counters["tightness"] = count ? ratio_sum / count : 0.0;
}
BENCHMARK(BM_TightnessLbKim)->Arg(64)->Arg(256);

void BM_TightnessLbKeogh(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t w = n / 10;
  Rng rng(2);
  double ratio_sum = 0.0;
  size_t count = 0;
  const DtwOptions options{static_cast<int>(w)};
  for (auto _ : state) {
    const auto a = RandomVector(n, &rng);
    const auto b = RandomVector(n, &rng);
    const Envelope env = ComputeEnvelope(std::span<const double>(b), w);
    const double dtw = DtwDistance(std::span<const double>(a),
                                   std::span<const double>(b), options);
    const double lb = LbKeogh(std::span<const double>(a), env);
    if (dtw > 0) {
      ratio_sum += lb / dtw;
      ++count;
    }
    benchmark::DoNotOptimize(lb);
  }
  state.counters["tightness"] = count ? ratio_sum / count : 0.0;
}
BENCHMARK(BM_TightnessLbKeogh)->Arg(64)->Arg(256);

void BM_ComputeEnvelope(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t w = static_cast<size_t>(state.range(1));
  Rng rng(3);
  const auto series = RandomVector(n, &rng);
  for (auto _ : state) {
    Envelope env = ComputeEnvelope(std::span<const double>(series), w);
    benchmark::DoNotOptimize(env.lower.data());
    benchmark::DoNotOptimize(env.upper.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_point"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
// Explore's longest length and its band (window ratio 0.1 of 128).
BENCHMARK(BM_ComputeEnvelope)->Args({128, 13});

}  // namespace
}  // namespace onex

BENCHMARK_MAIN();
