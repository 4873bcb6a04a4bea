// Figure 16: concurrent (same 5-ms window) destination racks per host, by
// destination locality, for Web servers, cache followers, and cache
// leaders — plus the §6.4 text numbers on concurrent 5-tuple connections
// (100s-1000s for Web/cache, ~25 for Hadoop; host-level grouping shrinks
// counts by at most 2x).
#include <cstdio>

#include "fbdcsim/analysis/concurrency.h"
#include "paper.h"

namespace fbdcsim::paper {

namespace {

/// Prints one panel and returns its all-localities racks-per-window median.
double print_panel(const char* name, const bench::RoleTrace& trace,
                   const analysis::AddrResolver& resolver) {
  const auto cdfs = analysis::concurrent_racks(trace.result.trace, trace.self, resolver);
  std::printf("\n-- %s: destination racks per 5-ms window --\n", name);
  bench::print_cdf_table("racks",
                         {"Intra-Cluster", "Intra-DC", "Inter-DC", "All"},
                         {&cdfs.intra_cluster, &cdfs.intra_datacenter,
                          &cdfs.inter_datacenter, &cdfs.all});
  return cdfs.all.median();
}

}  // namespace

void fig16_concurrent_racks(const PaperTraces& traces, Anchors& anchors) {
  check(anchors, "6.4", "Web server talks to 10-125 racks per 5 ms (median ~50)", 15, 125,
        print_panel("(a) Web server", traces.web, traces.resolver()));
  check(anchors, "6.4", "Cache follower talks to 225-300 racks per 5 ms", 150, 350,
        print_panel("(b) Cache follower", traces.cache_follower, traces.resolver()));
  print_panel("(c) Cache leader", traces.cache_leader, traces.resolver());

  std::printf("\n-- Section 6.4 text numbers: concurrent connections per 5-ms window --\n");
  std::printf("%-15s  %10s  %10s  %12s\n", "host type", "tuples.p50", "hosts.p50",
              "hosts/tuples");
  for (const auto* t :
       {&traces.web, &traces.cache_follower, &traces.cache_leader, &traces.hadoop}) {
    const auto conns = analysis::concurrent_connections(t->result.trace, t->self);
    std::printf("%-15s  %10.0f  %10.0f  %12.2f\n", core::to_string(t->role),
                conns.tuples.median(), conns.hosts.median(),
                conns.tuples.median() > 0 ? conns.hosts.median() / conns.tuples.median()
                                          : 0.0);
    if (t == &traces.hadoop) {
      check(anchors, "6.4", "Hadoop ~25 concurrent connections per 5 ms", 8, 60,
            conns.tuples.median());
    }
    if (t == &traces.cache_follower) {
      check(anchors, "6.4", "Cache holds 100s-1000s of concurrent connections", 100, 5000,
            conns.tuples.median());
    }
  }

  std::printf(
      "\nPaper Figure 16: cache followers touch 225-300 racks per 5 ms,\n"
      "leaders 175-350 (median ~250), Web servers 10-125 (median ~50);\n"
      "Web/cache hold 100s-1000s of concurrent connections, Hadoop ~25;\n"
      "grouping by destination host reduces counts by at most 2x.\n");
}

}  // namespace fbdcsim::paper
