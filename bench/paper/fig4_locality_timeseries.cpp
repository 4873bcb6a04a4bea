// Figure 4: per-second traffic locality by system type over a two-minute
// span — Hadoop, Web server, cache follower, cache leader. Each row of the
// output is one second's outbound Mbps split by destination locality (the
// paper's stacked bar charts).
#include <cstdio>

#include "fbdcsim/analysis/locality.h"
#include "paper.h"

namespace fbdcsim::paper {

namespace {

void print_series(const char* name, const bench::RoleTrace& trace,
                  const analysis::AddrResolver& resolver) {
  const auto series =
      analysis::locality_timeseries(trace.result.trace, trace.self, resolver);
  std::printf("\n-- %s: per-second outbound Mbps by destination locality --\n", name);
  std::printf("%4s  %10s %13s %16s %16s %10s\n", "sec", "Intra-Rack", "Intra-Cluster",
              "Intra-Datacenter", "Inter-Datacenter", "Total");
  core::OnlineStats total_stats;
  for (const auto& bin : series) {
    const double mbps = 8.0 / 1e6;
    std::printf("%4lld  %10.1f %13.1f %16.1f %16.1f %10.1f\n",
                static_cast<long long>(bin.bin), bin.bytes[0] * mbps, bin.bytes[1] * mbps,
                bin.bytes[2] * mbps, bin.bytes[3] * mbps, bin.total() * mbps);
    total_stats.add(bin.total() * mbps);
  }
  std::printf("   stability: mean %.1f Mbps, stddev %.1f (cv %.3f)\n", total_stats.mean(),
              total_stats.stddev(),
              total_stats.mean() > 0 ? total_stats.stddev() / total_stats.mean() : 0.0);
}

}  // namespace

void fig4_locality_timeseries(const PaperTraces& traces, Anchors& /*anchors*/) {
  // The paper plots a two-minute span; here each role's series covers its
  // shared paper capture (FBDCSIM_BENCH_SECONDS=120 restores the paper's
  // window). Shapes are unaffected: the point of the figure is that the
  // non-Hadoop stacks are flat and dominated by non-rack-local traffic.
  print_series("Hadoop", traces.hadoop, traces.resolver());
  print_series("Web server", traces.web, traces.resolver());
  print_series("Cache follower", traces.cache_follower, traces.resolver());
  print_series("Cache leader", traces.cache_leader, traces.resolver());

  std::printf(
      "\nPaper Figure 4 shape: Hadoop bursty and rack+cluster local; Web/cache\n"
      "flat over the window; Web and cache-f cluster-dominated with minimal\n"
      "rack-local bytes; cache-l split between intra- and inter-datacenter.\n");
}

}  // namespace fbdcsim::paper
