// Ablation: disable connection pooling (every cache get pays SYN/FIN).
// Pooling is the paper's explanation for long-lived low-rate flows (§5.1)
// and moderate SYN rates (Figure 14); without it the long-lived flows
// vanish and the SYN rate explodes.
//
// The table prints no flow-duration median: it reads 0.3 ms under both
// configs, because more than half of a pooled Web host's outbound flows
// are its one-shot ephemeral exchanges (~520/s, ~0.3 ms each), which
// pooling does not touch (EXPERIMENTS.md, "Ablations").
#include <cstdio>

#include "ablations.h"
#include "fbdcsim/analysis/flow_table.h"

namespace fbdcsim::ablations {
namespace {

// The Web tier makes pooling starkest: 40 gets per user request.
constexpr Capture kPooled = kWebBaseline;
constexpr Capture kUnpooled{
    .role = kWebBaseline.role, .seconds = kWebBaseline.seconds, .change = Change::kNoPooling};

void reduce(const Captured& captured, Summary& out) {
  const bench::RoleTrace& trace = captured.trace;
  const double capture_sec =
      (trace.result.capture_end - trace.result.capture_start).to_seconds();
  Summary::Pooling& m = out.pooling;
  const auto flows = analysis::FlowTable::outbound_flows(trace.result.trace, trace.self);
  std::int64_t long_flows = 0;
  for (const auto& f : flows) {
    if (f.duration().to_seconds() >= capture_sec / 2) ++long_flows;
  }
  m.long_flow_pct =
      flows.empty()
          ? 0.0
          : static_cast<double>(long_flows) / static_cast<double>(flows.size()) * 100.0;
  m.flows_total = static_cast<double>(flows.size());

  std::int64_t syns = 0;
  for (const auto& pkt : trace.result.trace) {
    if (pkt.tuple.src_ip == trace.self && pkt.flags.syn && !pkt.flags.ack) ++syns;
  }
  m.syn_per_sec = static_cast<double>(syns) / capture_sec;
}

}  // namespace

void conn_pooling_plan(Grid& grid) {
  grid.need(kPooled, &reduce);
  grid.need(kUnpooled, &reduce);
}

void conn_pooling(const Context& ctx, bench::Anchors& anchors) {
  const Summary::Pooling& m_on = ctx.grid.at(kPooled).pooling;
  const Summary::Pooling& m_off = ctx.grid.at(kUnpooled).pooling;

  std::printf("\n%-44s  %10s  %10s\n", "metric (Web server)", "pooling", "no pool");
  std::printf("%-44s  %9.1f%%  %9.1f%%\n", "flows spanning >=50% of capture",
              m_on.long_flow_pct, m_off.long_flow_pct);
  std::printf("%-44s  %10.0f  %10.0f\n", "outbound SYNs per second", m_on.syn_per_sec,
              m_off.syn_per_sec);
  std::printf("%-44s  %10.0f  %10.0f\n", "distinct outbound flows", m_on.flows_total,
              m_off.flows_total);
  bench::check_contrast(anchors, "5.1", "Pooling off: outbound SYN rate explodes",
                        m_on.syn_per_sec, m_off.syn_per_sec, 10.0, bench::Direction::kUp);
  bench::check_contrast(anchors, "5.1", "Pooling off: long-lived flows vanish (>=half capture)",
                        m_on.long_flow_pct, m_off.long_flow_pct, 10.0,
                        bench::Direction::kDown);
}

}  // namespace fbdcsim::ablations
