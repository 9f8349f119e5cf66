// Per-layer probes of the traced run: timed calls into the distance
// kernels, Engine::Execute replays, and routed-versus-direct reads.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "api/engine.h"
#include "harness.h"

namespace perfbench {

struct KernelCosts {
  double dtw_ns_per_cell = 0;
  double lb_keogh_ns_per_point = 0;
  double lb_kim_ns_per_call = 0;
  double ed_ns_per_point = 0;
};

/// Times banded DTW, LB_Keogh and LB_Kim on query/representative pairs
/// and squared-ED on query/member pairs, sampled from `engine`'s base at
/// the lengths of `reads` and the base's band.
KernelCosts MeasureKernels(const onex::Engine& engine,
                           const std::vector<onex::QueryRequest>& reads,
                           uint64_t seed, Tracer* tracer);

struct RouterProbe {
  std::vector<double> hop_ms;    ///< Routed round trip - slowest direct leg.
  std::vector<double> merge_us;  ///< MergeMatchRows + RenderMergedFinal.
  double legs_per_read = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Sends each match-shaped read (up to `limit`) through the router bound
/// to `target`, then directly to every dataset in `legs`, one at a time,
/// and re-merges the captured leg finals in-process.
RouterProbe ProbeRouter(uint16_t router_port, uint16_t node_port,
                        const std::string& target,
                        const std::vector<std::string>& legs,
                        const std::vector<onex::QueryRequest>& reads,
                        size_t limit, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
