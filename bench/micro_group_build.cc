// Micro-benchmark for Algorithm 1 (offline group construction). The
// paper argues the expected group count is O(sqrt(n)) and the build
// O(n^{3/2}); sweeping the subsequence count exposes that superlinear-
// but-far-from-quadratic growth, and the counters report the measured
// group counts. BM_AssignmentScan and BM_PairwisePass time the two
// halves of a build, each through each batch kernel, on the shape of
// perfbench's explore base: ns_per_point is the time per point of the
// (subsequence, representative) or (representative, representative)
// pairs scored, counted in full even where a block stops early.
// BM_OnexBaseBuild times whole builds of perfbench's explore and
// scatter bases, once on the process's WorkPool and once on the
// calling thread alone (a pool without workers).

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "core/group_builder.h"
#include "core/gti.h"
#include "core/onex_base.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "util/rng.h"
#include "util/work_pool.h"

namespace onex {
namespace {

/// perfbench's explore base: TwoPattern, 100 series of 128 points,
/// min-max normalized, built at the default ST of 0.2.
const Dataset& ExploreData() {
  static const Dataset data = [] {
    GenOptions gen;
    gen.num_series = 100;
    gen.length = 128;
    gen.seed = 42;
    Dataset d = MakeTwoPatterns(gen);
    MinMaxNormalize(&d);
    return d;
  }();
  return data;
}

constexpr double kExploreSt = 0.2;

/// Reports `ns` of timed work over `points` scored as ns per point.
void ReportNsPerPoint(benchmark::State& state, double ns, double points) {
  state.counters["ns_per_point"] =
      ns / (points * static_cast<double>(state.iterations()));
}

double NsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Args: subsequence length, kernel (0 portable, 1 AVX2).
LaneKernel KernelArg(benchmark::State& state) {
  const LaneKernel kernel =
      state.range(1) == 0 ? LaneKernel::kPortable : LaneKernel::kAvx2;
  if (!LaneKernelSupported(kernel)) state.SkipWithError("kernel unsupported");
  return kernel;
}

void BM_AssignmentScan(benchmark::State& state) {
  const Dataset& d = ExploreData();
  const auto length = static_cast<uint32_t>(state.range(0));
  const LaneKernel kernel = KernelArg(state);
  Rng rng(42);
  const std::vector<SubsequenceRef> refs = ShuffledRefs(d, length, &rng);
  double pairs = 0, ns = 0;
  size_t groups = 0;
  for (auto _ : state) {
    GroupAssigner assigner(d, length, kExploreSt, refs, kernel);
    const auto start = std::chrono::steady_clock::now();
    pairs = 0;
    for (size_t i = 0; i < refs.size(); ++i) {
      pairs += static_cast<double>(assigner.size());
      assigner.AssignNext();
    }
    groups = assigner.size();
    benchmark::DoNotOptimize(groups);
    ns += NsSince(start);
  }
  ReportNsPerPoint(state, ns, pairs * length);
  state.counters["groups"] = static_cast<double>(groups);
}
BENCHMARK(BM_AssignmentScan)
    ->ArgsProduct({{16, 64}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_PairwisePass(benchmark::State& state) {
  const Dataset& d = ExploreData();
  const auto length = static_cast<size_t>(state.range(0));
  const LaneKernel kernel = KernelArg(state);
  Rng rng(42);
  const GroupAssigner groups =
      BuildGroupsForLength(d, length, kExploreSt, &rng);
  const double g = static_cast<double>(groups.size());
  double ns = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    PairwisePass pass(groups.blocks(), groups.size(), length, kExploreSt,
                      true);
    pass.Run(kernel);
    benchmark::DoNotOptimize(pass.sums().data());
    benchmark::ClobberMemory();
    ns += NsSince(start);
  }
  ReportNsPerPoint(state, ns, g * (g - 1) / 2 * static_cast<double>(length));
  state.counters["groups"] = g;
}
BENCHMARK(BM_PairwisePass)
    ->ArgsProduct({{16, 64}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// Args: base (0 explore: TwoPattern 100 x 128, lengths 16..128 step 16;
/// 1 scatter: one 40 x 64 shard, lengths 8, 12, 16), pool (0 the
/// calling thread alone, 1 the process's WorkPool). One iteration is
/// one build.
void BM_OnexBaseBuild(benchmark::State& state) {
  static const Dataset scatter_shard = [] {
    GenOptions gen;
    gen.num_series = 40;
    gen.length = 64;
    gen.seed = 42;
    Dataset d = MakeTwoPatterns(gen);
    MinMaxNormalize(&d);
    return d;
  }();
  static WorkPool caller_only(0);
  const bool explore = state.range(0) == 0;
  const Dataset& d = explore ? ExploreData() : scatter_shard;
  OnexOptions options;
  options.lengths = explore ? LengthSpec{16, 128, 16} : LengthSpec{8, 16, 4};
  WorkPool& pool = state.range(1) == 0 ? caller_only : WorkPool::Shared();
  size_t groups = 0;
  for (auto _ : state) {
    auto base = OnexBase::Build(d, options, pool);
    if (!base.ok()) state.SkipWithError("build failed");
    groups = base.value().stats().num_representatives;
    benchmark::DoNotOptimize(groups);
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["threads"] = static_cast<double>(1 + pool.workers());
}
BENCHMARK(BM_OnexBaseBuild)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_BuildGroupsForLength(benchmark::State& state) {
  const size_t n_series = static_cast<size_t>(state.range(0));
  GenOptions gen;
  gen.num_series = n_series;
  gen.length = 32;
  gen.seed = 42;
  Dataset d = MakeEcg(gen);
  MinMaxNormalize(&d);
  size_t groups_built = 0;
  for (auto _ : state) {
    Rng rng(7);
    groups_built = BuildGroupsForLength(d, 16, 0.2, &rng).size();
    benchmark::DoNotOptimize(groups_built);
  }
  state.counters["groups"] = static_cast<double>(groups_built);
  state.counters["subsequences"] =
      static_cast<double>(n_series * (32 - 16 + 1));
}
BENCHMARK(BM_BuildGroupsForLength)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_BuildGroupsVaryingSt(benchmark::State& state) {
  GenOptions gen;
  gen.num_series = 48;
  gen.length = 32;
  gen.seed = 42;
  Dataset d = MakeEcg(gen);
  MinMaxNormalize(&d);
  const double st = static_cast<double>(state.range(0)) / 100.0;
  size_t groups_built = 0;
  for (auto _ : state) {
    Rng rng(7);
    groups_built = BuildGroupsForLength(d, 16, st, &rng).size();
    benchmark::DoNotOptimize(groups_built);
  }
  state.counters["groups"] = static_cast<double>(groups_built);
}
BENCHMARK(BM_BuildGroupsVaryingSt)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

}  // namespace
}  // namespace onex

BENCHMARK_MAIN();
