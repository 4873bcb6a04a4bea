// Figure 11: intersection between the heavy hitters of each 1/10/100-ms
// subinterval and those of its enclosing second — the paper's upper bound
// on how useful second-granularity traffic-engineering predictions can be.
#include <cstdio>

#include "fbdcsim/analysis/heavy_hitters.h"
#include "paper.h"

namespace fbdcsim::paper {

namespace {

void print_panel(const char* name, const bench::RoleTrace& trace,
                 const analysis::AddrResolver& resolver) {
  std::printf("\n-- %s: %% of subinterval heavy hitters heavy over the enclosing second --\n",
              name);
  std::printf("%-6s %-7s  %8s %8s %8s\n", "agg", "bin", "p10", "p50", "p90");
  const core::Duration span = trace.result.capture_end - trace.result.capture_start;
  for (const NamedLevel& level : kAggLevels) {
    const auto per_second = analysis::bin_outbound(trace.result.trace, trace.self, resolver,
                                                   level.level, core::Duration::seconds(1),
                                                   trace.result.capture_start, span);
    for (const NamedBin& bin : kHhBins) {
      const auto sub =
          analysis::bin_outbound(trace.result.trace, trace.self, resolver, level.level,
                                 bin.bin, trace.result.capture_start, span);
      const auto inter = analysis::hh_second_intersection(sub, per_second);
      core::Cdf cdf;
      cdf.add_all(inter);
      std::printf("%-6s %-7s  %8.1f %8.1f %8.1f\n", level.name, bin.name, cdf.p10(),
                  cdf.median(), cdf.p90());
    }
  }
}

}  // namespace

void fig11_hh_intersection(const PaperTraces& traces, Anchors& /*anchors*/) {
  print_panel("(a) Web server", traces.web, traces.resolver());
  print_panel("(b) Cache follower", traces.cache_follower, traces.resolver());

  std::printf(
      "\nPaper Figure 11 shape: 5-tuple predictive power poor (<10-15%%);\n"
      "rack-level much better (majority overlap at 100 ms); host-level useful\n"
      "mainly for Web servers.\n");
}

}  // namespace fbdcsim::paper
