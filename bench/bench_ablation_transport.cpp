// Transport ablation: scripted packet emission vs the flow-level TCP
// engine (RackSimConfig::transport), over the same seeded workloads.
//
// The scripted path *draws* packet sizes and SYN interarrivals from the
// paper's distributions; the TCP path must *produce* them — MSS
// segmentation, pure ACKs, real handshakes, ACK clocking. This bench
// quantifies how close the emergent capture stays to the scripted one:
//
//   - Figure 12 packet-size mode split (ACK-mode / MSS-mode fractions)
//     side by side per role
//   - Figure 14 SYN-interarrival quantiles plus a sup-gap distance over
//     the quantile grid (a Kolmogorov-Smirnov-style comparison on the
//     inverse CDFs)
//   - retransmission accounting under the heavy fault profile: the TCP
//     path's retransmit rate must move when path loss fires, something
//     the scripted path cannot express at all
//   - a Reno-vs-DCTCP tail contrast per role under a tight shared buffer
//     plus the heavy fault profile (DESIGN.md §12): DCTCP's CE marks at
//     the auto-derived threshold must pull the occupancy tail and the
//     retransmit rate below NewReno's drop-driven reaction
//   - cwnd evolution per role via the observability layer's probe: the
//     aggregate congestion window's trajectory over the capture, plus the
//     heavy run's flight-recorder tracepoints (RTO fires, fast-retransmit
//     transitions) dumped to bench_<name>.tracepoints.jsonl
//
// Headline numbers land in the JSON report's "extra" section so the CI
// bench-smoke trajectory tracks them across commits; series land in its
// "timeseries" section.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "fbdcsim/analysis/packet_stats.h"
#include "fbdcsim/core/stats.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/transport/mux.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

using namespace fbdcsim;

namespace {

struct RoleRow {
  const char* name{};
  core::HostRole role{};
};

constexpr std::array<RoleRow, 4> kRoles{{
    {"Web", core::HostRole::kWeb},
    {"Cache-f", core::HostRole::kCacheFollower},
    {"Cache-l", core::HostRole::kCacheLeader},
    {"Hadoop", core::HostRole::kHadoop},
}};

/// The congestion-control law FBDCSIM_CC selected for this bench run
/// (resolved once in main); every kTcp capture below runs under it, so
/// `FBDCSIM_CC=dctcp bench_ablation_transport` re-runs the whole ablation
/// with the DCTCP variant in place of NewReno.
transport::CongestionControl g_cc = transport::CongestionControl::kNewReno;

/// Likewise for FBDCSIM_RECOVERY: every kTcp capture honors it, so
/// `FBDCSIM_RECOVERY=sack bench_ablation_transport` re-runs the ablation
/// with the SACK scoreboard in place of NewReno recovery.
transport::LossRecovery g_recovery = transport::LossRecovery::kNewReno;

workload::RackSimResult run_capture(const topology::Fleet& fleet, core::HostRole role,
                                    std::int64_t seconds, workload::Transport transport,
                                    const faults::FaultPlan* plan,
                                    transport::TransportMux::Stats* stats_out = nullptr,
                                    bool observe = false) {
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, role, core::Duration::seconds(seconds));
  cfg.transport = transport;
  cfg.tcp.cc = g_cc;
  cfg.tcp.recovery = g_recovery;
  cfg.faults = plan;
  if (observe) {
    // The cwnd-evolution sections below ride on the observability layer.
    // FBDCSIM_OBS may refine the knobs; the bench needs at least `on`, and
    // caps the series length so four roles' traces stay report-sized.
    cfg.obs = bench::obs_config();
    if (!cfg.obs.enabled()) cfg.obs.mode = telemetry::ObsConfig::Mode::kOn;
    cfg.obs.series_capacity = 64;
  }
  workload::RackSimulation rack{fleet, cfg};
  workload::RackSimResult result = rack.run();
  if (stats_out != nullptr && rack.transport_mux() != nullptr) {
    *stats_out = rack.transport_mux()->stats();
  }
  return result;
}

/// The transport.* subset of a run's probe snapshot (the switch/rack series
/// are fig15 material; per-role cwnd evolution is what this bench reports).
std::vector<telemetry::SeriesSnapshot> transport_series(
    const std::vector<telemetry::SeriesSnapshot>& all) {
  std::vector<telemetry::SeriesSnapshot> out;
  for (const telemetry::SeriesSnapshot& s : all) {
    if (s.name.rfind("transport.", 0) == 0) out.push_back(s);
  }
  return out;
}

/// Mean value of a series' first / last bin ("where did cwnd start and end").
double bin_mean(const telemetry::SeriesBin& b) {
  return b.count > 0 ? static_cast<double>(b.sum) / static_cast<double>(b.count) : 0.0;
}

/// Sup-gap between two empirical inverse CDFs over a percentile grid, in
/// the samples' own unit — 0 when the distributions coincide.
double quantile_sup_gap(const core::Cdf& a, const core::Cdf& b) {
  if (a.size() == 0 || b.size() == 0) return std::nan("");
  double sup = 0.0;
  for (int i = 5; i <= 95; i += 5) {
    const double q = static_cast<double>(i) / 100.0;
    sup = std::max(sup, std::abs(a.quantile(q) - b.quantile(q)));
  }
  return sup;
}

}  // namespace

int main() {
  bench::BenchReport report{"ablation_transport"};
  bench::banner("Ablation: scripted packet emission vs flow-level TCP",
                "Figures 12, 14; Section 3 (transport substitution)");
  bench::BenchEnv env;
  const topology::Fleet& fleet = env.fleet();
  const std::int64_t seconds = bench::BenchEnv::effective_seconds(1);
  g_cc = env.cc();
  g_recovery = env.recovery();
  std::printf("congestion control (FBDCSIM_CC): %s\n", transport::to_string(g_cc));
  std::printf("loss recovery (FBDCSIM_RECOVERY): %s\n\n", transport::to_string(g_recovery));
  report.add_extra("cc", std::string{transport::to_string(g_cc)});
  report.add_extra("recovery", std::string{transport::to_string(g_recovery)});

  // --- Figure 12: packet-size mode split, scripted vs emergent ------------
  std::printf("Packet-size mode split (fraction of frames; small = ACK/control mode,\n");
  std::printf("full = MSS mode; remainder is mid-sized singles):\n");
  std::printf("%-8s | %23s | %23s\n", "", "scripted", "tcp (emergent)");
  std::printf("%-8s | %7s %7s %7s | %7s %7s %7s\n", "role", "small", "full", "mid",
              "small", "full", "mid");
  std::vector<std::pair<const char*, std::vector<telemetry::SeriesSnapshot>>> role_series;
  for (const RoleRow& r : kRoles) {
    const workload::RackSimResult scripted =
        run_capture(fleet, r.role, seconds, workload::Transport::kScripted, nullptr);
    const workload::RackSimResult tcp = run_capture(
        fleet, r.role, seconds, workload::Transport::kTcp, nullptr, nullptr,
        /*observe=*/true);
    const analysis::PacketSizeModes ms = analysis::packet_size_mode_split(scripted.trace);
    const analysis::PacketSizeModes mt = analysis::packet_size_mode_split(tcp.trace);
    std::printf("%-8s | %7.3f %7.3f %7.3f | %7.3f %7.3f %7.3f\n", r.name,
                ms.small_fraction, ms.full_fraction,
                1.0 - ms.small_fraction - ms.full_fraction, mt.small_fraction,
                mt.full_fraction, 1.0 - mt.small_fraction - mt.full_fraction);
    report.add_extra(std::string{"tcp_small_frac_"} + r.name, mt.small_fraction);
    report.add_extra(std::string{"tcp_full_frac_"} + r.name, mt.full_fraction);
    role_series.emplace_back(r.name, transport_series(tcp.timeseries));
  }

  // --- cwnd evolution per role (observability probe) ----------------------
  // The aggregate congestion window across the monitored host's live
  // connections, sampled on the probe cadence during the Figure 12 TCP
  // captures above. Pooled roles should settle into a steady regime; the
  // Web role's ephemeral connections keep the aggregate swinging with
  // connection churn. The full transport.* series land in the report's
  // "timeseries" section under cwnd_<role>.
  std::printf("\nAggregate cwnd evolution at the monitored host (bytes, probe means):\n");
  std::printf("%-8s %12s %12s %12s %9s\n", "role", "first", "last", "max", "samples");
  for (const auto& [name, series] : role_series) {
    report.add_timeseries(std::string{"cwnd_"} + name, series);
    const telemetry::SeriesSnapshot* cwnd =
        telemetry::find_series(series, "transport.cwnd_bytes");
    if (cwnd == nullptr || cwnd->bins.empty()) {
      std::printf("%-8s %12s %12s %12s %9s\n", name, "-", "-", "-", "0");
      continue;
    }
    std::int64_t max_cwnd = 0;
    for (const telemetry::SeriesBin& b : cwnd->bins) max_cwnd = std::max(max_cwnd, b.max);
    std::printf("%-8s %12.0f %12.0f %12lld %9lld\n", name, bin_mean(cwnd->bins.front()),
                bin_mean(cwnd->bins.back()), static_cast<long long>(max_cwnd),
                static_cast<long long>(cwnd->samples));
    report.add_extra(std::string{"cwnd_last_mean_"} + name, bin_mean(cwnd->bins.back()));
  }

  // --- Figure 14: SYN interarrivals, scripted vs emergent -----------------
  // The Web role carries the paper's SYN workload (ephemeral front-end
  // connections); pooled cache/Hadoop flows open rarely by design.
  std::printf("\nSYN interarrivals at the monitored Web host (ms):\n");
  std::printf("%-10s %9s %9s %9s %9s %7s\n", "path", "p10", "p50", "p90", "p99", "syns");
  {
    const core::Ipv4Addr self =
        fleet.host(workload::monitored_host(fleet, core::HostRole::kWeb)).addr;
    const workload::RackSimResult scripted =
        run_capture(fleet, core::HostRole::kWeb, seconds, workload::Transport::kScripted,
                    nullptr);
    const workload::RackSimResult tcp = run_capture(
        fleet, core::HostRole::kWeb, seconds, workload::Transport::kTcp, nullptr);
    const core::Cdf cs = analysis::syn_interarrival_cdf(scripted.trace, self);
    const core::Cdf ct = analysis::syn_interarrival_cdf(tcp.trace, self);
    for (const auto& [name, cdf] : {std::pair{"scripted", &cs}, {"tcp", &ct}}) {
      std::printf("%-10s %9.3f %9.3f %9.3f %9.3f %7zu\n", name, cdf->quantile(0.10) / 1e3,
                  cdf->quantile(0.50) / 1e3, cdf->quantile(0.90) / 1e3,
                  cdf->quantile(0.99) / 1e3, cdf->size());
    }
    const double gap_us = quantile_sup_gap(cs, ct);
    std::printf("sup quantile gap (5..95%%): %.3f ms\n", gap_us / 1e3);
    report.add_extra("syn_cdf_sup_gap_us", gap_us);
  }

  // --- Retransmissions under faults ---------------------------------------
  // Only the TCP path can express this: scripted captures have no
  // retransmit concept, so the heavy profile's path loss silently thins
  // them. The TCP engine must instead recover every loss and account it.
  std::printf("\nTCP retransmission accounting (Hadoop, heavy profile vs off):\n");
  std::printf("%-7s %10s %10s %10s %9s %9s %9s\n", "faults", "segments", "rtx", "fast_rtx",
              "rto", "path_loss", "sw_drops");
  const faults::FaultPlan heavy{faults::heavy_profile()};
  for (const auto& [name, plan] :
       {std::pair<const char*, const faults::FaultPlan*>{"off", nullptr},
        {"heavy", &heavy}}) {
    transport::TransportMux::Stats s;
    const workload::RackSimResult faulted = run_capture(
        fleet, core::HostRole::kHadoop, seconds, workload::Transport::kTcp, plan, &s,
        /*observe=*/true);
    if (plan != nullptr && !faulted.tracepoints.records.empty()) {
      // Flight-recorder evidence for the loss events the columns count:
      // drops, RTO fires, and fast-retransmit transitions in sim order,
      // merged into bench_<name>.tracepoints.jsonl by the report.
      report.add_tracepoints(faulted.tracepoints);
    }
    std::printf("%-7s %10lld %10lld %10lld %9lld %9lld %9lld\n", name,
                static_cast<long long>(s.segments_sent),
                static_cast<long long>(s.retransmit_segments),
                static_cast<long long>(s.fast_retransmits),
                static_cast<long long>(s.rto_fired),
                static_cast<long long>(s.path_loss_drops),
                static_cast<long long>(s.switch_drop_notifications));
    const double rate = s.segments_sent > 0 ? static_cast<double>(s.retransmit_segments) /
                                                  static_cast<double>(s.segments_sent)
                                            : 0.0;
    report.add_extra(std::string{"rtx_rate_"} + name, rate);
  }

  // --- NewReno vs SACK: repair-kind split under heavy fault loss ----------
  // The recovery ablation the fault benches needed: under the heavy
  // profile's ~16% path loss, NewReno's partial-ACK loop repairs one hole
  // per RTT and resends bytes the receiver already buffered, so multi-hole
  // windows routinely outlive the 200-ms RTO floor and fall back to
  // go-back-N. The SACK scoreboard retransmits exactly the reported holes
  // per pipe, so both timeout-driven repair (rtx_rto, rto) and the sheer
  // volume of retransmissions fall. This section always runs both laws
  // regardless of FBDCSIM_RECOVERY.
  std::printf("\nNewReno vs SACK recovery, heavy fault profile:\n");
  std::printf("%-8s %-8s %9s %8s %8s %8s %9s %6s %9s %7s\n", "role", "recovery", "segs",
              "rtx", "rtx_dup", "rtx_rto", "fast_rtx", "rto", "sack_rtx", "rescue");
  std::int64_t rto_total[2] = {0, 0};
  std::int64_t rtx_dupack_total[2] = {0, 0};
  for (const RoleRow& r : kRoles) {
    for (const auto recovery :
         {transport::LossRecovery::kNewReno, transport::LossRecovery::kSack}) {
      workload::RackSimConfig cfg = workload::default_rack_config(
          fleet, r.role, core::Duration::seconds(seconds));
      cfg.transport = workload::Transport::kTcp;
      cfg.tcp.cc = g_cc;
      cfg.tcp.recovery = recovery;
      cfg.faults = &heavy;
      workload::RackSimulation rack{fleet, cfg};
      (void)rack.run();
      transport::TransportMux::Stats s;
      if (rack.transport_mux() != nullptr) s = rack.transport_mux()->stats();
      const char* rec_name = transport::to_string(recovery);
      std::printf("%-8s %-8s %9lld %8lld %8lld %8lld %9lld %6lld %9lld %7lld\n", r.name,
                  rec_name, static_cast<long long>(s.segments_sent),
                  static_cast<long long>(s.retransmit_segments),
                  static_cast<long long>(s.rtx_dupack_segments),
                  static_cast<long long>(s.rtx_rto_segments),
                  static_cast<long long>(s.fast_retransmits),
                  static_cast<long long>(s.rto_fired),
                  static_cast<long long>(s.sack_retransmits),
                  static_cast<long long>(s.sack_rescue_retransmits));
      const int idx = recovery == transport::LossRecovery::kSack ? 1 : 0;
      rto_total[idx] += s.rto_fired;
      rtx_dupack_total[idx] += s.rtx_dupack_segments;
      report.add_extra(std::string{"rto_"} + rec_name + "_" + r.name, s.rto_fired);
      report.add_extra(std::string{"rtx_dupack_"} + rec_name + "_" + r.name,
                       s.rtx_dupack_segments);
      report.add_extra(std::string{"rtx_rto_"} + rec_name + "_" + r.name,
                       s.rtx_rto_segments);
    }
  }
  // The CI smoke asserts the headline: SACK fires fewer RTOs fleet-wide
  // and retransmits less — it never resends delivered bytes.
  report.add_extra("rto_newreno_total", rto_total[0]);
  report.add_extra("rto_sack_total", rto_total[1]);
  report.add_extra("rtx_dupack_newreno_total", rtx_dupack_total[0]);
  report.add_extra("rtx_dupack_sack_total", rtx_dupack_total[1]);

  // --- Reno vs DCTCP: occupancy/retransmit tail contrast ------------------
  // The §7 question made testable (DESIGN.md §12): squeeze the shared pool
  // to incast scale — the fig15 regime, where the rack's fan-in contends
  // for a 32-KB pool — and run the same seeded workload under both
  // congestion-control laws, with the switch as the only loss source (no
  // fault plan: the heavy profile's path loss would retransmit ~16% of
  // segments under EITHER law and bury the cc signal; its composition with
  // marking is gated by tests/transport/dctcp_differential_test.cpp).
  // NewReno first learns about the queue when DT admission drops a
  // segment; DCTCP sees CE marks at the auto-derived threshold K =
  // buffer/4 and backs off in proportion to the mark fraction, so it
  // should hold the occupancy tail near K and retransmit less. This
  // section always runs both laws regardless of FBDCSIM_CC.
  std::printf("\nReno vs DCTCP, incast-scale shared buffer (32 KB), no faults:\n");
  std::printf("%-8s %-6s %9s %9s %9s %9s %9s %9s\n", "role", "cc", "rtx_rate", "sw_drops",
              "marks", "p99.occ", "max.occ", "segs");
  for (const RoleRow& r : kRoles) {
    for (const auto cc : {transport::CongestionControl::kNewReno,
                          transport::CongestionControl::kDctcp}) {
      workload::RackSimConfig cfg = workload::default_rack_config(
          fleet, r.role, core::Duration::seconds(seconds));
      cfg.transport = workload::Transport::kTcp;
      cfg.tcp.cc = cc;
      // Incast-scale shared pool (fig15's contended-pool size) and the
      // service mix pushed past the drain rate so a standing queue forms —
      // transient microbursts alone are over before one RTT of feedback
      // can act, and both laws drop them alike. DCTCP's marking threshold
      // auto-derives to buffer/4.
      cfg.rsw.buffer_total = core::DataSize::kilobytes(32);
      cfg.mix = workload::scale_rates(cfg.mix, 4.0);
      // Occupancy tail via the probe (same series fig15 reads).
      cfg.obs = bench::obs_config();
      if (!cfg.obs.enabled()) cfg.obs.mode = telemetry::ObsConfig::Mode::kOn;
      cfg.obs.series_capacity = 256;
      workload::RackSimulation rack{fleet, cfg};
      const workload::RackSimResult result = rack.run();
      transport::TransportMux::Stats s;
      if (rack.transport_mux() != nullptr) s = rack.transport_mux()->stats();

      const double buffer_bytes =
          static_cast<double>(cfg.rsw.buffer_total.count_bytes());
      double p99_occ = 0.0;
      double max_occ = 0.0;
      if (const telemetry::SeriesSnapshot* occ = telemetry::find_series(
              result.timeseries, "switch.buffer_occupancy_bytes")) {
        core::Cdf bin_means;
        std::int64_t max_bytes = 0;
        for (const telemetry::SeriesBin& b : occ->bins) {
          if (b.count == 0) continue;
          bin_means.add(static_cast<double>(b.sum) / static_cast<double>(b.count));
          max_bytes = std::max(max_bytes, b.max);
        }
        if (bin_means.size() > 0) p99_occ = bin_means.quantile(0.99) / buffer_bytes;
        max_occ = static_cast<double>(max_bytes) / buffer_bytes;
      }
      const std::int64_t sw_drops =
          result.uplink.dropped_packets + result.downlinks.dropped_packets;
      const std::int64_t marks =
          result.uplink.ecn_marked_packets + result.downlinks.ecn_marked_packets;
      const double rtx_rate =
          s.segments_sent > 0 ? static_cast<double>(s.retransmit_segments) /
                                    static_cast<double>(s.segments_sent)
                              : 0.0;
      const char* cc_name = transport::to_string(cc);
      std::printf("%-8s %-6s %9.4f %9lld %9lld %9.3f %9.3f %9lld\n", r.name, cc_name,
                  rtx_rate, static_cast<long long>(sw_drops),
                  static_cast<long long>(marks), p99_occ, max_occ,
                  static_cast<long long>(s.segments_sent));
      report.add_extra(std::string{"rtx_rate_"} + cc_name + "_" + r.name, rtx_rate);
      report.add_extra(std::string{"p99_occ_"} + cc_name + "_" + r.name, p99_occ);
      report.add_extra(std::string{"sw_drops_"} + cc_name + "_" + r.name, sw_drops);
      if (cc == transport::CongestionControl::kDctcp) {
        report.add_extra(std::string{"ecn_marks_"} + r.name, marks);
      }
    }
  }

  std::printf(
      "\nReading: the TCP columns must show both Figure 12 modes without any\n"
      "scripted size distribution feeding them, SYN interarrival quantiles\n"
      "within the same regime as the scripted draw, and a retransmit rate\n"
      "that moves from ~0 to visibly positive under the heavy profile.\n"
      "In the Reno-vs-DCTCP table, the dctcp rows must mark (marks > 0)\n"
      "and hold a lower occupancy tail and/or retransmit rate than the\n"
      "reno rows wherever the tight buffer actually contends.\n");
  return 0;
}
