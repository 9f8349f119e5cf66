// A workload is one data set-up plus one traffic mix, run against the
// same in-process stack: a durable data node (storage::DurableEngine
// behind server::Catalog and server::Server, two workers), optionally an
// in-process router::Router in front of it, and, after the load, a
// restarted leader that fresh followers bootstrap from.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "dataset/dataset.h"
#include "harness.h"
#include "storage/storage.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Datasets the node serves, by name, already normalized.
  std::vector<std::pair<std::string, onex::Dataset>> datasets;
  onex::OnexOptions options;
  /// Reads go through a router in front of the node.
  bool routed = false;
  /// `use` target of the read session (a dataset or a shard-set).
  std::string read_target;
  /// The distinct reads of one pass; the load sends them `passes` times
  /// over, in order, and each read's latency is its best over the passes.
  std::vector<onex::QueryRequest> reads;
  double read_rate = 0;
  int passes = 1;
  /// `use` target of the write session; the dataset appends land in.
  std::string append_target;
  std::vector<std::vector<double>> appends;
  /// Appends are sent open loop beside the load's reads at this rate,
  /// each timed from its due time; 0 = no appends over the wire (the
  /// traced run still times `appends` on an in-memory twin). Whether each
  /// append is fsync'd is `storage.sync_appends`.
  double append_rate = 0;
  onex::storage::StorageOptions storage;
  /// Set-ups, reopens and follower bootstraps per run; set-up is reported
  /// as the median of this many, reopen and bootstrap as the fastest.
  int repeats = 3;
  /// Answer check of the load's reads: byte-identical to an in-process
  /// Engine::Execute (single dataset), or equal to the direct per-shard
  /// answers merged by hand (routed).
  enum class Check { kEngineParity, kMergeParity, kNone } check;
  /// Reads asked of the reopened data and of each follower, compared
  /// with the leader's answers.
  std::vector<onex::QueryRequest> probes;
};

/// Builds the inputs of workload `name` from `seed`, sized for a load of
/// `seconds`; false if unknown.
bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  WorkloadSpec* spec);

/// Runs the workload and fills the report with the end-to-end metrics,
/// or with the per-layer metrics when `args.trace` is set. False when a
/// step failed so badly that the run stopped before its metrics.
bool RunWorkload(const WorkloadSpec& spec, const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
