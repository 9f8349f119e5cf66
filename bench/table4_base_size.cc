// Reproduces paper Table 4: per-dataset number of representatives,
// total number of grouped subsequences (the cardinality-reduction
// story), and index size in MB — including the GTI/LSI byte split the
// paper itemizes for ItalyPower (Sec. 6.3) — next to what persisting the
// base costs: snapshot bytes per byte of series data, and the share of
// groups that are singletons (the snapshot stores no representative for
// those: their one member is it).

#include <cstdio>

#include "bench/common.h"
#include "core/serialization.h"
#include "datagen/registry.h"
#include "util/table.h"

namespace onex {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const BenchConfig config = ParseConfig(argc, argv);

  TableWriter table4(
      "Table 4: representatives, subsequences, and index size (ST = " +
      TableWriter::Num(config.st, 2) + ")");
  table4.SetHeader({"dataset", "representatives", "subsequences",
                    "size MB", "GTI MB", "LSI MB", "compression",
                    "snapshot B/user B", "singleton share"});

  for (const auto& name : EvaluationDatasetNames()) {
    const Dataset dataset = PrepareDataset(name, config);
    OnexBase base = BuildBase(dataset, config);
    const BaseStats& stats = base.stats();
    const double gti_mb =
        static_cast<double>(stats.gti_bytes) / (1024.0 * 1024.0);
    const double lsi_mb =
        static_cast<double>(stats.lsi_bytes) / (1024.0 * 1024.0);
    const double compression =
        stats.num_representatives > 0
            ? static_cast<double>(stats.num_subsequences) /
                  static_cast<double>(stats.num_representatives)
            : 0.0;
    size_t user_bytes = 0;
    for (size_t i = 0; i < base.dataset().size(); ++i) {
      user_bytes += base.dataset()[i].length() * sizeof(double);
    }
    size_t singletons = 0;
    for (const auto& [length, entry] : base.gti().entries()) {
      for (const LsiEntry& group : entry.groups) singletons += group.size() == 1;
    }
    const auto snapshot = SaveBaseToString(base);
    const double snapshot_ratio =
        snapshot.ok() && user_bytes > 0
            ? static_cast<double>(snapshot.value().size()) /
                  static_cast<double>(user_bytes)
            : 0.0;
    const double singleton_share =
        stats.num_representatives > 0
            ? static_cast<double>(singletons) /
                  static_cast<double>(stats.num_representatives)
            : 0.0;
    table4.AddRow({name, std::to_string(stats.num_representatives),
                   std::to_string(stats.num_subsequences),
                   TableWriter::Num(stats.TotalMb(), 3),
                   TableWriter::Num(gti_mb, 3), TableWriter::Num(lsi_mb, 3),
                   TableWriter::Num(compression, 1) + "x",
                   TableWriter::Num(snapshot_ratio, 1),
                   TableWriter::Num(singleton_share, 2)});
  }
  table4.Print();
  std::printf("Paper shape: representatives are orders of magnitude fewer "
              "than subsequences (e.g. ItalyPower 1228 reps for 18492 "
              "subsequences at full scale).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace onex

int main(int argc, char** argv) { return onex::bench::Run(argc, argv); }
