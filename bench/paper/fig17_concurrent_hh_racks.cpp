// Figure 17: concurrent (5-ms) heavy-hitter racks — the destination racks
// that make up the majority of a window's bytes. Few even when hundreds of
// racks are touched, and impermanent (which is what makes hybrid
// circuit-switched fabrics hard for Frontend clusters, §6.4).
#include <cstdio>

#include "fbdcsim/analysis/concurrency.h"
#include "paper.h"

namespace fbdcsim::paper {

namespace {

/// Prints one panel and returns its all-localities heavy-hitter-racks median.
double print_panel(const char* name, const bench::RoleTrace& trace,
                   const analysis::AddrResolver& resolver) {
  const auto cdfs =
      analysis::concurrent_heavy_hitter_racks(trace.result.trace, trace.self, resolver);
  std::printf("\n-- %s: heavy-hitter racks per 5-ms window --\n", name);
  bench::print_cdf_table("racks",
                         {"Intra-Cluster", "Intra-DC", "Inter-DC", "All"},
                         {&cdfs.intra_cluster, &cdfs.intra_datacenter,
                          &cdfs.inter_datacenter, &cdfs.all});
  return cdfs.all.median();
}

}  // namespace

void fig17_concurrent_hh_racks(const PaperTraces& traces, Anchors& anchors) {
  print_panel("(a) Web server", traces.web, traces.resolver());
  check(anchors, "6.4", "Cache follower ~29 HH racks per 5 ms (tail ~50)", 10, 60,
        print_panel("(b) Cache follower", traces.cache_follower, traces.resolver()));
  print_panel("(c) Cache leader", traces.cache_leader, traces.resolver());

  std::printf(
      "\nPaper Figure 17: median heavy-hitter racks 6-8 for Web servers and\n"
      "cache leaders (max 20-30); ~29 for cache followers (tail ~50). Web and\n"
      "cache followers' heavy hitters are mostly inside their cluster; the\n"
      "leader shows the opposite.\n");
}

}  // namespace fbdcsim::paper
