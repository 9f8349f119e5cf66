// Copyright 2026 The ONEX Reproduction Authors.
// Shared harness for the experiment binaries. Each bench/fig*_ or
// table*_ binary reproduces one figure/table of the paper's Sec. 6 and
// prints the same rows/series. Everything here encodes the paper's
// methodology:
//   - datasets: the six evaluation sets, min-max normalized (Sec. 6.1),
//     generated at --scale of their UCR cardinality so default runs fit
//     a CI budget (absolute numbers shrink; comparison shape persists);
//   - queries: 20 per dataset, half "in the dataset" (subsequences
//     promoted to queries), half "outside" (fresh series from the same
//     generator, the offline stand-in for Fu et al.'s leave-out), with
//     lengths covering the indexed range (Sec. 6.2.1);
//   - timing: each query repeated --runs times, averaged per query,
//     then averaged per dataset;
//   - accuracy: error = d_system - d_oracle in normalized DTW computed
//     in min-max space at the returned location, accuracy =
//     (1 - mean error) * 100 with Standard-DTW as oracle (Sec. 6.2.1).

#ifndef ONEX_BENCH_COMMON_H_
#define ONEX_BENCH_COMMON_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/onex_base.h"
#include "core/query_processor.h"
#include "dataset/dataset.h"
#include "dataset/length_spec.h"
#include "util/flags.h"

namespace onex {
namespace bench {

/// Common knobs, overridable via --scale=, --queries=, --runs=, --st=,
/// --max-length=, --seed=.
struct BenchConfig {
  double scale = 0.02;      ///< Fraction of each dataset's UCR series count.
  size_t max_length = 64;   ///< Series truncated to this many points.
  size_t num_queries = 20;  ///< Paper: 20 (10 in + 10 out).
  size_t runs = 3;          ///< Paper: 5 repetitions per query.
  double st = 0.2;          ///< Paper's balanced threshold (Sec. 6.3).
  LengthSpec lengths{8, 0, 8};
  double window_ratio = 0.1;
  uint64_t seed = 42;
};

/// Parses flags into a config (also honors --scale=paper => scale 1.0).
BenchConfig ParseConfig(int argc, char** argv);

/// Generates dataset `name` at config scale, truncates series to
/// max_length points, min-max normalizes. Dies on unknown names.
Dataset PrepareDataset(const std::string& name, const BenchConfig& config);

/// One benchmark query.
struct BenchQuery {
  std::vector<double> values;
  bool in_dataset = false;
};

/// The paper's query mix: lengths sweep the indexed grid; even indices
/// come from the dataset, odd ones from unseen series of the same
/// generator distribution.
std::vector<BenchQuery> MakeQueries(const Dataset& dataset,
                                    const std::string& name,
                                    const BenchConfig& config);

/// Builds an ONEX base over a copy of `dataset` with the config's
/// parameters; prints nothing. Dies on failure.
OnexBase BuildBase(const Dataset& dataset, const BenchConfig& config,
                   double st_override = 0.0);

/// Accuracy metric for Tables 2-3: root-length-normalized DTW in
/// min-max space, DTW / sqrt(max(n, m)) — the DTW analog of the
/// normalized ED (Def. 5). Def. 6's 1/(2n) scale compresses every error
/// toward zero; the paper's reported 71-99% accuracy band implies this
/// per-point error scale instead (see EXPERIMENTS.md).
double AccuracyDistance(const Dataset& dataset, std::span<const double> query,
                        const SubsequenceRef& ref, const BenchConfig& config);

/// Mean-of-means timing helper: runs `fn` config.runs times and returns
/// the average seconds per run.
double TimeAverage(size_t runs, const std::function<void()>& fn);

}  // namespace bench
}  // namespace onex

#endif  // ONEX_BENCH_COMMON_H_
