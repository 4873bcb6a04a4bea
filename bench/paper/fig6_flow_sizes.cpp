// Figure 6: flow size distributions (5-tuple flows), broken down by the
// location of the destination, for Web servers, cache followers, and
// Hadoop nodes.
#include <cstdio>

#include "fbdcsim/analysis/locality.h"
#include "paper.h"

namespace fbdcsim::paper {

namespace {

/// Prints one panel and returns its all-localities flow-size CDF.
core::Cdf print_panel(const char* name, const bench::RoleTrace& trace,
                      const analysis::AddrResolver& resolver) {
  const auto flows = analysis::FlowTable::outbound_flows(trace.result.trace, trace.self);
  const auto buckets = analysis::flows_by_locality(flows, resolver);

  core::Cdf per_loc[core::kNumLocalities];
  for (int i = 0; i < core::kNumLocalities; ++i) {
    per_loc[i].add_all(buckets.size_bytes[i]);
  }
  core::Cdf all;
  all.add_all(buckets.all_size_bytes);

  std::printf("\n-- %s: flow size by destination locality --\n", name);
  bench::print_cdf_table(
      "flow payload bytes (KB)",
      {"Intra-Rack", "Intra-Cluster", "Intra-DC", "Inter-DC", "All"},
      {&per_loc[0], &per_loc[1], &per_loc[2], &per_loc[3], &all}, 1e-3, "KB");
  std::printf("flows <10 KB: %.0f%%; flows >1 MB: %.1f%%\n",
              all.fraction_at_or_below(10'000) * 100.0,
              (1.0 - all.fraction_at_or_below(1'000'000)) * 100.0);
  return all;
}

}  // namespace

void fig6_flow_sizes(const PaperTraces& traces, Anchors& anchors) {
  print_panel("(a) Web server", traces.web, traces.resolver());
  print_panel("(b) Cache follower", traces.cache_follower, traces.resolver());
  const core::Cdf hadoop = print_panel("(c) Hadoop", traces.hadoop, traces.resolver());
  check(anchors, "5.1", "Hadoop: ~70% of flows < 10 KB", 55, 95,
        hadoop.fraction_at_or_below(10'000) * 100.0);
  check(anchors, "5.1", "Hadoop: <5% of flows > 1 MB", 0, 5,
        (1.0 - hadoop.fraction_at_or_below(1'000'000)) * 100.0);
  check(anchors, "5.1", "Hadoop median flow < 1 KB", 0, 1000, hadoop.median());

  std::printf(
      "\nPaper Figure 6 shape: Hadoop flows small (70%% <10 KB, median <1 KB,\n"
      "<5%% >1 MB); cache flows significantly larger than Hadoop; Web servers\n"
      "in between.\n");
}

}  // namespace fbdcsim::paper
