// Figure 9: cache follower flow sizes aggregated per destination *host*.
// The wide 5-tuple distribution of Figure 6b collapses into a tight
// distribution at host level — the signature of user-request load balancing
// across all Web servers (Section 5.1).
#include <cstdio>

#include "fbdcsim/analysis/locality.h"
#include "paper.h"

namespace fbdcsim::paper {

void fig9_cache_host_flows(const PaperTraces& traces, Anchors& /*anchors*/) {
  const bench::RoleTrace& trace = traces.cache_follower;
  const auto flows = analysis::FlowTable::outbound_flows(trace.result.trace, trace.self);

  core::Cdf by_flow;
  for (const auto& f : flows) by_flow.add(static_cast<double>(f.payload_bytes));

  const auto by_host = analysis::aggregate(flows, analysis::AggLevel::kHost, traces.resolver());
  core::Cdf host_cdf;
  for (const auto& a : by_host) host_cdf.add(static_cast<double>(a.payload_bytes));

  bench::print_cdf("per 5-tuple flow size (KB)", by_flow, 1e-3, "KB");
  std::printf("\n");
  bench::print_cdf("per destination-host flow size (KB)", host_cdf, 1e-3, "KB");

  const double spread_flow = by_flow.p90() / std::max(1.0, by_flow.p10());
  const double spread_host = host_cdf.p90() / std::max(1.0, host_cdf.p10());
  std::printf("\np90/p10 spread: 5-tuple %.1fx -> host %.1fx (paper: wide -> tight ~1 MB)\n",
              spread_flow, spread_host);
  std::printf("destination hosts: %zu\n", by_host.size());
}

}  // namespace fbdcsim::paper
