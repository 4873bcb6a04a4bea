// Figure 7: flow duration distributions by destination locality for Web
// servers, cache followers, and Hadoop nodes. Pooled cache connections
// outlive the capture (paper: >40% of cache-l flows exceed the 10-minute
// trace); Hadoop flows last well under a second.
#include <cstdio>

#include "fbdcsim/analysis/locality.h"
#include "paper.h"

namespace fbdcsim::paper {

namespace {

void print_panel(const char* name, const bench::RoleTrace& trace,
                 const analysis::AddrResolver& resolver) {
  const double capture_ms =
      (trace.result.capture_end - trace.result.capture_start).to_millis();
  const auto flows = analysis::FlowTable::outbound_flows(trace.result.trace, trace.self);
  const auto buckets = analysis::flows_by_locality(flows, resolver);

  core::Cdf per_loc[core::kNumLocalities];
  for (int i = 0; i < core::kNumLocalities; ++i) {
    per_loc[i].add_all(buckets.duration_ms[i]);
  }
  core::Cdf all;
  all.add_all(buckets.all_duration_ms);

  std::printf("\n-- %s: flow duration by destination locality --\n", name);
  bench::print_cdf_table(
      "flow duration (ms)",
      {"Intra-Rack", "Intra-Cluster", "Intra-DC", "Inter-DC", "All"},
      {&per_loc[0], &per_loc[1], &per_loc[2], &per_loc[3], &all}, 1.0, "ms");
  std::printf("flows <100 ms: %.0f%%; flows spanning >=90%% of the capture: %.0f%%\n",
              all.fraction_at_or_below(100.0) * 100.0,
              (1.0 - all.fraction_at_or_below(capture_ms * 0.9)) * 100.0);
}

}  // namespace

void fig7_flow_durations(const PaperTraces& traces, Anchors& /*anchors*/) {
  print_panel("(a) Web server", traces.web, traces.resolver());
  print_panel("(b) Cache follower", traces.cache_follower, traces.resolver());
  print_panel("(c) Hadoop", traces.hadoop, traces.resolver());

  std::printf(
      "\nPaper Figure 7 shape: Hadoop flows short (median <1 s, almost none\n"
      "exceed the capture); cache flows long-lived due to connection pooling\n"
      "(many span the whole capture); Web in between.\n");
}

}  // namespace fbdcsim::paper
