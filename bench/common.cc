#include "bench/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "datagen/registry.h"
#include "dataset/normalize.h"
#include "distance/dtw.h"
#include "util/rng.h"
#include "util/timer.h"

namespace onex {
namespace bench {

BenchConfig ParseConfig(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchConfig config;
  const std::string scale = flags.GetString("scale", "");
  if (scale == "paper") {
    config.scale = 1.0;
    config.max_length = 1024;
  } else if (!scale.empty()) {
    config.scale = std::strtod(scale.c_str(), nullptr);
  }
  config.max_length = static_cast<size_t>(
      flags.GetInt("max-length", static_cast<int64_t>(config.max_length)));
  config.num_queries = static_cast<size_t>(
      flags.GetInt("queries", static_cast<int64_t>(config.num_queries)));
  config.runs =
      static_cast<size_t>(flags.GetInt("runs",
                                       static_cast<int64_t>(config.runs)));
  config.st = flags.GetDouble("st", config.st);
  config.window_ratio = flags.GetDouble("window", config.window_ratio);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.lengths.min_length =
      static_cast<size_t>(flags.GetInt("min-len", 8));
  config.lengths.step = static_cast<size_t>(flags.GetInt("len-step", 8));
  return config;
}

Dataset PrepareDataset(const std::string& name, const BenchConfig& config) {
  auto made = MakeScaledDataset(name, config.scale, config.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "fatal: %s\n", made.status().ToString().c_str());
    std::exit(1);
  }
  Dataset raw = std::move(made).value();
  Dataset dataset(raw.name());
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i].length() > config.max_length) {
      const auto view = raw[i].Subsequence(0, config.max_length);
      dataset.Add(TimeSeries(std::vector<double>(view.begin(), view.end()),
                             raw[i].label()));
    } else {
      dataset.Add(raw[i]);
    }
  }
  MinMaxNormalize(&dataset);
  return dataset;
}

std::vector<BenchQuery> MakeQueries(const Dataset& dataset,
                                    const std::string& name,
                                    const BenchConfig& config) {
  std::vector<BenchQuery> queries;
  Rng rng(config.seed ^ 0xBADC0FFEULL);
  const size_t n = dataset.MaxLength();
  // The query lengths sweep the indexed grid from smallest to largest
  // (Sec. 6.2.1 "wide range of lengths").
  const auto grid = config.lengths.LengthsFor(n);
  if (grid.empty() || dataset.empty()) return queries;

  // "Outside" queries come from unseen series of the same generator.
  GenOptions gen;
  gen.num_series = config.num_queries;
  gen.seed = config.seed * 7919 + 13;
  auto outside_result = MakeDatasetByName(name, gen);
  Dataset outside =
      outside_result.ok() ? std::move(outside_result).value() : Dataset();
  MinMaxNormalize(&outside);

  for (size_t q = 0; q < config.num_queries; ++q) {
    const size_t len = grid[q % grid.size()];
    BenchQuery query;
    query.in_dataset = (q % 2 == 0);
    const Dataset& source =
        (query.in_dataset || outside.empty()) ? dataset : outside;
    const size_t p = rng.Uniform(source.size());
    const size_t series_len = source[p].length();
    if (series_len < len) {
      const auto view = source[p].Subsequence(0, series_len);
      query.values.assign(view.begin(), view.end());
    } else {
      const size_t j = rng.Uniform(series_len - len + 1);
      const auto view = source[p].Subsequence(j, len);
      query.values.assign(view.begin(), view.end());
    }
    if (!query.in_dataset) {
      // "Designed" queries (the paper's analysts sketch target shapes):
      // a sketched shape carries its own amplitude and offset, which is
      // what separates min-max-space engines from z-normalizing ones.
      const double scale = rng.UniformDouble(0.6, 1.4);
      const double offset = rng.UniformDouble(-0.2, 0.2);
      for (double& x : query.values) {
        x = std::clamp(x * scale + offset, 0.0, 1.0);
      }
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

OnexBase BuildBase(const Dataset& dataset, const BenchConfig& config,
                   double st_override) {
  OnexOptions options;
  options.st = st_override > 0.0 ? st_override : config.st;
  options.lengths = config.lengths;
  options.window_ratio = config.window_ratio;
  options.seed = config.seed;
  auto built = OnexBase::Build(dataset, options);
  if (!built.ok()) {
    std::fprintf(stderr, "fatal: %s\n", built.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(built).value();
}

double AccuracyDistance(const Dataset& dataset, std::span<const double> query,
                        const SubsequenceRef& ref,
                        const BenchConfig& config) {
  const auto candidate = ref.View(dataset);
  const DtwOptions options = DtwOptions::FromRatio(
      config.window_ratio, query.size(), candidate.size());
  const double root = std::sqrt(
      static_cast<double>(std::max(query.size(), candidate.size())));
  return DtwDistance(query, candidate, options) / root;
}

double TimeAverage(size_t runs, const std::function<void()>& fn) {
  if (runs == 0) runs = 1;
  Timer timer;
  for (size_t r = 0; r < runs; ++r) fn();
  return timer.ElapsedSeconds() / static_cast<double>(runs);
}

}  // namespace bench
}  // namespace onex
