// Figure 10: heavy-hitter stability between consecutive intervals, as a
// function of aggregation level (flow / host / rack) and interval length
// (1 / 10 / 100 ms), for cache followers, cache leaders, and Web servers.
#include <array>
#include <cstdio>

#include "fbdcsim/analysis/heavy_hitters.h"
#include "paper.h"

namespace fbdcsim::paper {

namespace {

/// Median persistence per [level][bin], in the printed order.
using Medians = std::array<std::array<double, 3>, 3>;

Medians print_panel(const char* name, const bench::RoleTrace& trace,
                    const analysis::AddrResolver& resolver) {
  std::printf("\n-- %s: %% of an interval's heavy hitters still heavy in the next --\n", name);
  std::printf("%-6s %-7s  %8s %8s %8s %8s\n", "agg", "bin", "p10", "p50", "p90", "samples");
  Medians medians{};
  for (std::size_t l = 0; l < std::size(kAggLevels); ++l) {
    const NamedLevel& level = kAggLevels[l];
    for (std::size_t b = 0; b < std::size(kHhBins); ++b) {
      const NamedBin& bin = kHhBins[b];
      const auto binned = analysis::bin_outbound(
          trace.result.trace, trace.self, resolver, level.level, bin.bin,
          trace.result.capture_start, trace.result.capture_end - trace.result.capture_start);
      const auto persist = analysis::hh_persistence(binned);
      core::Cdf cdf;
      cdf.add_all(persist);
      std::printf("%-6s %-7s  %8.1f %8.1f %8.1f %8zu\n", level.name, bin.name, cdf.p10(),
                  cdf.median(), cdf.p90(), cdf.size());
      medians[l][b] = cdf.median();
    }
  }
  return medians;
}

}  // namespace

void fig10_hh_stability(const PaperTraces& traces, Anchors& anchors) {
  const Medians cache =
      print_panel("(a) Cache follower", traces.cache_follower, traces.resolver());
  check(anchors, "5.3", "Cache 5-tuple HH persistence low (median <= ~20%)", 0, 25,
        cache[0][1]);
  check(anchors, "5.3", "Cache rack-level HH persistence >40% @100ms", 35, 100, cache[2][2]);
  print_panel("(b) Cache leader", traces.cache_leader, traces.resolver());
  print_panel("(c) Web server", traces.web, traces.resolver());

  std::printf(
      "\nPaper Figure 10 shape: 5-tuple heavy hitters persist <~15%% in the\n"
      "median; host-level <~20%% (Web somewhat higher); only rack-level\n"
      "aggregation is stable (cache >40%%, Web ~60%% at 100 ms).\n");
}

}  // namespace fbdcsim::paper
