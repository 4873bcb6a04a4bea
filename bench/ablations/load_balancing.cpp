// Ablation: disable user-request load balancing (requests become
// Zipf-concentrated instead of uniform). DESIGN.md's causal claim is that
// load balancing is what produces the tight per-host flow sizes (Figure 9)
// and the instability/uniformity of heavy hitters (Figure 10). With it
// off, per-host flow sizes spread out and rack-level heavy hitters become
// few and persistent.
#include <algorithm>
#include <cstdio>

#include "ablations.h"
#include "fbdcsim/analysis/heavy_hitters.h"
#include "fbdcsim/analysis/locality.h"

namespace fbdcsim::ablations {
namespace {

constexpr Capture kBalanced = kCacheFollowerBaseline;
constexpr Capture kUnbalanced{.role = kCacheFollowerBaseline.role,
                              .seconds = kCacheFollowerBaseline.seconds,
                              .change = Change::kNoLoadBalancing};

void reduce(const Captured& captured, Summary& out) {
  const bench::RoleTrace& trace = captured.trace;
  const analysis::AddrResolver& resolver = captured.env.resolver();
  Summary::Balance& m = out.balance;
  const auto flows = analysis::FlowTable::outbound_flows(trace.result.trace, trace.self);
  const auto by_host = analysis::aggregate(flows, analysis::AggLevel::kHost, resolver);
  core::Cdf host_cdf;
  for (const auto& a : by_host) host_cdf.add(static_cast<double>(a.payload_bytes));
  m.host_flow_spread = host_cdf.p90() / std::max(1.0, host_cdf.p10());

  const auto binned = analysis::bin_outbound(
      trace.result.trace, trace.self, resolver, analysis::AggLevel::kRack,
      core::Duration::millis(100), trace.result.capture_start,
      trace.result.capture_end - trace.result.capture_start);
  core::Cdf persist;
  persist.add_all(analysis::hh_persistence(binned));
  m.rack_hh_persist_p50 = persist.median();
  m.rack_hh_count_p50 = analysis::hh_stats(binned).count_per_bin.median();
}

}  // namespace

void load_balancing_plan(Grid& grid) {
  grid.need(kBalanced, &reduce);
  grid.need(kUnbalanced, &reduce);
}

void load_balancing(const Context& ctx, bench::Anchors& anchors) {
  const Summary::Balance& m_on = ctx.grid.at(kBalanced).balance;
  const Summary::Balance& m_off = ctx.grid.at(kUnbalanced).balance;

  std::printf("\n%-44s  %10s  %10s\n", "metric (cache follower)", "LB on", "LB off");
  std::printf("%-44s  %10.1f  %10.1f\n", "per-dest-host flow size spread (p90/p10)",
              m_on.host_flow_spread, m_off.host_flow_spread);
  std::printf("%-44s  %9.1f%%  %9.1f%%\n", "rack-HH persistence @100ms (median)",
              m_on.rack_hh_persist_p50, m_off.rack_hh_persist_p50);
  std::printf("%-44s  %10.0f  %10.0f\n", "rack-HH count per 100ms (median)",
              m_on.rack_hh_count_p50, m_off.rack_hh_count_p50);
  bench::check_contrast(anchors, "5.2", "LB off: per-host flow sizes spread (p90/p10)",
                        m_on.host_flow_spread, m_off.host_flow_spread, 10.0,
                        bench::Direction::kUp);
  bench::check_contrast(anchors, "5.3", "LB off: rack heavy hitters persist (@100ms)",
                        m_on.rack_hh_persist_p50, m_off.rack_hh_persist_p50, 1.25,
                        bench::Direction::kUp);
  bench::check_contrast(anchors, "5.3", "LB off: rack heavy hitters concentrate (count)",
                        m_on.rack_hh_count_p50, m_off.rack_hh_count_p50, 4.0,
                        bench::Direction::kDown);
}

}  // namespace fbdcsim::ablations
