// Table 4: number and size (rate) of heavy hitters in 1-ms intervals for
// each host type, at flow / destination-host / destination-rack aggregation
// levels. A heavy-hitter set is the minimal set covering 50% of the
// interval's bytes (Section 5.3).
#include <cstdio>

#include "fbdcsim/analysis/heavy_hitters.h"
#include "paper.h"

namespace fbdcsim::paper {

void table4_heavy_hitters(const PaperTraces& traces, Anchors& /*anchors*/) {
  const NamedTrace kRows[] = {
      {"Web", &traces.web},
      {"Cache (f)", &traces.cache_follower},
      {"Cache (l)", &traces.cache_leader},
      {"Hadoop", &traces.hadoop},
  };
  const struct {
    const char* name;
    analysis::AggLevel level;
  } kLevels[] = {
      {"f", analysis::AggLevel::kFlow},
      {"h", analysis::AggLevel::kHost},
      {"r", analysis::AggLevel::kRack},
  };

  std::printf("\n%-10s %-3s  %6s %6s %6s   %9s %9s %9s\n", "Type", "agg", "n.p10", "n.p50",
              "n.p90", "Mbps.p10", "Mbps.p50", "Mbps.p90");
  for (const auto& row : kRows) {
    const bench::RoleTrace& trace = *row.trace;
    for (const auto& level : kLevels) {
      const auto binned = analysis::bin_outbound(
          trace.result.trace, trace.self, traces.resolver(), level.level,
          core::Duration::millis(1), trace.result.capture_start,
          trace.result.capture_end - trace.result.capture_start);
      const auto stats = analysis::hh_stats(binned);
      std::printf("%-10s %-3s  %6.0f %6.0f %6.0f   %9.2f %9.2f %9.2f\n", row.name, level.name,
                  stats.count_per_bin.p10(), stats.count_per_bin.median(),
                  stats.count_per_bin.p90(), stats.size_mbps.p10(), stats.size_mbps.median(),
                  stats.size_mbps.p90());
    }
  }

  std::printf(
      "\nPaper Table 4 for comparison (n p10/p50/p90, Mbps p10/p50/p90):\n"
      "Web       f 1/4/15 1.6/3.2/47.3 | h 1/4/14 1.6/3.3/48.1 | r 1/3/9 1.7/4.6/48.9\n"
      "Cache (f) f 8/19/35 5.1/9.0/22.5 | h 8/19/33 8.4/9.7/23.6 | r 7/15/23 8.4/14.5/31.0\n"
      "Cache (l) f 1/16/48 2.6/3.3/408 | h 1/8/25 3.2/8.1/414 | r 1/7/17 5/12.6/427\n"
      "Hadoop    f 1/2/3 4.6/12.7/1392 (same h/r)\n");
}

}  // namespace fbdcsim::paper
