// Reproduces paper Fig. 5 (offline construction time vs similarity
// threshold, log scale in the paper) and Fig. 6 (number of
// representatives vs similarity threshold, log scale). One sweep builds
// both series: ST in {0.1 .. 1.0}. The paper times a single-threaded
// build; this one runs each length's work on every CPU the process may
// use, and prints how many that was.

#include <cstdio>

#include "bench/common.h"
#include "datagen/registry.h"
#include "util/table.h"
#include "util/work_pool.h"

namespace onex {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const BenchConfig config = ParseConfig(argc, argv);
  const std::vector<double> thresholds = {0.1, 0.2, 0.4, 0.6, 0.8, 1.0};

  SeriesWriter fig5(
      "Figure 5: offline construction time vs ST (sec; paper plots log "
      "scale)");
  fig5.SetXLabel("ST");
  SeriesWriter fig6(
      "Figure 6: number of representatives vs ST (paper plots log scale)");
  fig6.SetXLabel("ST");
  for (const auto& name : EvaluationDatasetNames()) {
    fig5.AddSeries(name);
    fig6.AddSeries(name);
  }

  // Prepare datasets once; rebuild the base per threshold.
  std::vector<Dataset> datasets;
  for (const auto& name : EvaluationDatasetNames()) {
    datasets.push_back(PrepareDataset(name, config));
  }

  for (double st : thresholds) {
    std::vector<double> times, reps;
    for (const auto& dataset : datasets) {
      OnexBase base = BuildBase(dataset, config, st);
      times.push_back(base.stats().build_seconds);
      reps.push_back(static_cast<double>(base.stats().num_representatives));
    }
    fig5.AddPoint(st, times);
    fig6.AddPoint(st, reps);
  }
  fig5.Print();
  // The paper's times are single-threaded; these builds spread their
  // lengths over the process's WorkPool and the calling thread.
  std::printf("Build CPUs: %zu (1 calling thread + %zu pool workers)\n",
              1 + WorkPool::Shared().workers(), WorkPool::Shared().workers());
  fig6.Print();
  std::printf("Paper shape: construction is most expensive at low ST "
              "(many groups), drops as ST grows, then flattens; the "
              "representative count decreases monotonically with ST.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace onex

int main(int argc, char** argv) { return onex::bench::Run(argc, argv); }
