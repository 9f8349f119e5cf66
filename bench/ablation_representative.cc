// Representative-choice ablation: the paper (Sec. 7) contrasts its
// point-wise-average representatives (Def. 7) against the DTW-average
// ("DBA") cluster centers of Petitjean et al. [21]. This harness builds
// the groups once, then measures for each representative scheme:
//   - in-group tightness: mean DTW from members to the representative,
//   - the DBA objective (sum of squared DTW),
//   - construction cost of the representatives themselves.
// DBA buys tighter centers at a construction cost that is quadratic in
// member length per iteration — the trade the paper declines.

#include <cstdio>

#include "bench/common.h"
#include "core/group_builder.h"
#include "core/gti.h"
#include "distance/dba.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace onex {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const BenchConfig config = ParseConfig(argc, argv);

  TableWriter table(
      "Ablation: point-wise-average (ONEX Def. 7) vs DBA [21] "
      "representatives");
  table.SetHeader({"dataset", "groups", "mean DTW to rep (avg)",
                   "mean DTW to rep (DBA)", "objective ratio",
                   "avg rep cost", "DBA rep cost"});

  for (const std::string name : {"ECG", "Wafer", "Symbols"}) {
    const Dataset dataset = PrepareDataset(name, config);
    Rng rng(config.seed);
    const size_t length = 16;
    Timer avg_timer;
    const GroupAssigner groups =
        BuildGroupsForLength(dataset, length, config.st, &rng);
    const double avg_cost = avg_timer.ElapsedSeconds();
    const GtiEntry entry = FreezeGroups(groups, config.window_ratio);

    const DtwOptions dtw_options =
        DtwOptions::FromRatio(config.window_ratio, length, length);
    RunningStats tight_avg, tight_dba;
    double objective_avg = 0.0, objective_dba = 0.0;
    Timer dba_timer;
    double dba_cost = 0.0;
    size_t measured_groups = 0;
    for (const LsiEntry& group : entry.groups) {
      if (group.size() < 3) continue;  // Singletons are uninformative.
      ++measured_groups;
      std::vector<std::span<const double>> members;
      members.reserve(group.size());
      for (const LsiMember& member : group.members) {
        members.push_back(member.ref.View(dataset));
      }
      const std::span<const double> avg_rep(group.representative);
      // DBA seeded from the point-wise average (conventional).
      dba_timer.Reset();
      DbaOptions dba_options;
      dba_options.dtw = dtw_options;
      const auto dba_rep = DbaBarycenter(members, avg_rep, dba_options);
      dba_cost += dba_timer.ElapsedSeconds();

      for (const auto& member : members) {
        tight_avg.Add(DtwDistance(avg_rep, member, dtw_options));
        tight_dba.Add(DtwDistance(
            std::span<const double>(dba_rep.data(), dba_rep.size()), member,
            dtw_options));
      }
      objective_avg += SumSquaredDtw(members, avg_rep, dtw_options);
      objective_dba += SumSquaredDtw(
          members, std::span<const double>(dba_rep.data(), dba_rep.size()),
          dtw_options);
    }
    table.AddRow(
        {name, std::to_string(measured_groups),
         TableWriter::Num(tight_avg.mean(), 5),
         TableWriter::Num(tight_dba.mean(), 5),
         TableWriter::Num(
             objective_avg > 0 ? objective_dba / objective_avg : 1.0, 3),
         TableWriter::Num(avg_cost, 4) + "s",
         TableWriter::Num(dba_cost, 4) + "s"});
  }
  table.Print();
  std::printf("Reading: DBA tightens the centers (objective ratio < 1) "
              "but costs far more than the entire ED clustering pass — "
              "the paper's Def. 7 choice trades a little tightness for "
              "interactive build times. ONEX also *requires* the ED "
              "radius semantics of Lemma 1, which DBA centers do not "
              "provide.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace onex

int main(int argc, char** argv) { return onex::bench::Run(argc, argv); }
