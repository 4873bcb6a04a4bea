// Transport ablation: scripted packet emission vs the flow-level TCP
// engine (RackSimConfig::transport), and flow-completion-time tails across
// the engine's variants, over the same seeded workloads.
//
// The scripted path *draws* packet sizes and SYN interarrivals from the
// paper's distributions; the TCP path must *produce* them — MSS
// segmentation, pure ACKs, real handshakes, ACK clocking. This bench
// quantifies how close the emergent capture stays to the scripted one, and
// what the TCP variants do to congestion, loss and transfer latency:
//
//   - Figure 12 packet-size mode split (ACK-mode / MSS-mode fractions)
//     side by side per role
//   - cwnd evolution per role via the observability layer's probe: the
//     aggregate congestion window's trajectory over the capture
//   - Figure 14 SYN-interarrival quantiles plus a sup-gap distance over
//     the quantile grid (a Kolmogorov-Smirnov-style comparison on the
//     inverse CDFs)
//   - retransmission accounting under the heavy fault profile: the TCP
//     path's retransmit rate must move when path loss fires, something
//     the scripted path cannot express at all; the heavy run's
//     flight-recorder tracepoints (RTO fires, fast-retransmit transitions)
//     land in bench_<name>.tracepoints.jsonl
//   - NewReno vs SACK repair kinds under the heavy fault profile
//     (DESIGN.md §13)
//   - a Reno-vs-DCTCP tail contrast per role under a tight shared buffer
//     (DESIGN.md §12): DCTCP's CE marks at the auto-derived threshold must
//     pull the occupancy tail and the retransmit rate below NewReno's
//     drop-driven reaction
//   - FCT tails (DESIGN.md §14): per-role p50/p99/p999 FCT and slowdown
//     (FCT over the topology-derived unloaded FCT, from the FlowLedger)
//     under the NewReno, SACK and DCTCP variants, fault-free and under the
//     heavy profile, with the scripted path's flow durations alongside as
//     the no-transport baseline, then the same merged over roles
//
// Every table reads one grid of captures. Each distinct configuration —
// role, transport variant, fault profile, buffer regime — runs once, the
// whole grid as one batch on the shared pool, and each task reduces its
// RackSimResult to the numbers the tables print before the trace is
// dropped. Sharing a TCP capture between tables is sound because the
// observability layer never perturbs a run (checked by
// TransportRack.ObservabilityLeavesTcpRunsUnchanged), so each TCP capture
// runs with every observer any of its tables reads.
//
// Headline numbers land in the JSON report's "extra" section so the CI
// bench-smoke trajectory tracks them across commits; cwnd series land in
// its "timeseries" section, the heavy SACK FCT quantile table in its "fct"
// section, and the heavy SACK runs' ledgers in bench_<name>.flows.jsonl.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "fbdcsim/analysis/fct.h"
#include "fbdcsim/analysis/flow_table.h"
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

/// The roles of the FCT tables.
constexpr std::array<RoleRow, 3> kFctRoles{{kRoles[0], kRoles[2], kRoles[3]}};

/// How a capture moves its packets: the scripted emitter, or the TCP
/// engine under NewReno, SACK recovery, or DCTCP congestion control.
enum class Law : std::uint8_t { kScripted, kNewReno, kSack, kDctcp };

struct Variant {
  const char* name{};
  Law law{};
};

constexpr std::array<Variant, 3> kVariants{{
    {"newreno", Law::kNewReno},
    {"sack", Law::kSack},
    {"dctcp", Law::kDctcp},
}};

/// One capture configuration of the grid.
struct Capture {
  core::HostRole role{};
  Law law{};
  /// Heavy fault profile (else fault-free).
  bool heavy{false};
  /// Incast-scale shared buffer (32 KB) with the service mix at 4x rate.
  bool incast{false};

  bool operator==(const Capture&) const = default;
};

/// Ledger ring size per capture. A 1-s TCP capture closes far more
/// transfers than any affordable ring holds (~1.5 KB/record), so the FCT
/// quantiles are over each run's most recent kLedgerCapacity transfers —
/// the same deterministic window for every variant, which is what the
/// cross-variant comparison needs.
constexpr std::size_t kLedgerCapacity = 16384;

/// The numbers the tables read from one capture.
struct Summary {
  analysis::PacketSizeModes sizes;
  /// Outbound SYN interarrivals at the monitored host (us).
  core::Cdf syn_us;
  /// Scripted captures: outbound flow durations (ms), Figure 7's quantity.
  core::Cdf flow_durations_ms;
  /// TCP captures: the mux's counters (zero for scripted ones).
  transport::TransportMux::Stats stats;
  /// CE marks and drops at the switch, uplinks plus downlinks.
  std::int64_t marks{0};
  std::int64_t sw_drops{0};
  /// Incast captures: p99 of the occupancy probe's bin means and the
  /// maximum, as fractions of the shared buffer.
  double p99_occ{0.0};
  double max_occ{0.0};
  /// The probe's transport.* series (the switch/rack series are fig15
  /// material; per-role cwnd evolution is what this bench reports).
  std::vector<telemetry::SeriesSnapshot> transport_series;
  telemetry::TracePointDump tracepoints;
  /// Every completed transfer's FCT and slowdown, merged over cells.
  analysis::FctCell fct;
  std::int64_t fct_completed{0};
  std::int64_t fct_incomplete{0};
  /// The ledger itself, kept only where the report exports it.
  telemetry::FlowLedgerDump flows;
};

/// The FCT section and the flows.jsonl export read the heavy SACK runs:
/// they carry the richest attribution stories (switch drops, path loss,
/// recovery episodes) without multiplying the file by every variant.
bool exports_ledger(const Capture& c) {
  return c.law == Law::kSack && c.heavy &&
         std::any_of(kFctRoles.begin(), kFctRoles.end(),
                     [&c](const RoleRow& r) { return r.role == c.role; });
}

/// Runs one capture and reduces it to its Summary; the trace dies here.
Summary summarize(const topology::Fleet& fleet, const Capture& c, std::int64_t seconds,
                  const faults::FaultPlan& heavy, const telemetry::ObsConfig& env_obs) {
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, c.role, core::Duration::seconds(seconds));
  cfg.faults = c.heavy ? &heavy : nullptr;
  if (c.law != Law::kScripted) {
    cfg.transport = workload::Transport::kTcp;
    if (c.law == Law::kSack) cfg.tcp.recovery = transport::LossRecovery::kSack;
    if (c.law == Law::kDctcp) cfg.tcp.cc = transport::CongestionControl::kDctcp;
    // The cwnd, occupancy, tracepoint and FCT tables ride on the
    // observability layer. FBDCSIM_OBS may refine the knobs; the bench
    // needs at least `on`.
    cfg.obs = env_obs;
    if (!cfg.obs.enabled()) cfg.obs.mode = telemetry::ObsConfig::Mode::kOn;
  }
  if (c.incast) {
    // Incast-scale shared pool (fig15's contended-pool size) and the
    // service mix pushed past the drain rate so a standing queue forms —
    // transient microbursts alone are over before one RTT of feedback can
    // act, and both laws drop them alike. DCTCP's marking threshold
    // auto-derives to buffer/4. The occupancy tail comes from the probe
    // (the same series fig15 reads).
    cfg.rsw.buffer_total = core::DataSize::kilobytes(32);
    cfg.mix = workload::scale_rates(cfg.mix, 4.0);
    cfg.obs.series_capacity = 256;
  } else if (c.law != Law::kScripted) {
    // Cap the series length so four roles' cwnd traces stay report-sized,
    // and arm the ledger the FCT tables read, its ring sized for the
    // capture.
    cfg.obs.series_capacity = 64;
    cfg.obs.flows = true;
    cfg.obs.flow_capacity = std::max(cfg.obs.flow_capacity, kLedgerCapacity);
  }

  workload::RackSimulation rack{fleet, cfg};
  workload::RackSimResult r = rack.run();
  Summary s;
  if (rack.transport_mux() != nullptr) s.stats = rack.transport_mux()->stats();
  s.sizes = analysis::packet_size_mode_split(r.trace);
  const core::Ipv4Addr self = fleet.host(cfg.monitored_host).addr;
  s.syn_us = analysis::syn_interarrival_cdf(r.trace, self);
  if (c.law == Law::kScripted) {
    // No transport lifecycle exists, so the closest observable to an FCT
    // is the mirrored trace's flow durations. Slowdown is undefined for it
    // by construction.
    for (const analysis::Flow& f : analysis::FlowTable::outbound_flows(r.trace, self)) {
      s.flow_durations_ms.add(static_cast<double>(f.duration().count_nanos()) / 1e6);
    }
  }
  s.marks = r.uplink.ecn_marked_packets + r.downlinks.ecn_marked_packets;
  s.sw_drops = r.uplink.dropped_packets + r.downlinks.dropped_packets;
  if (const telemetry::SeriesSnapshot* occ =
          c.incast ? telemetry::find_series(r.timeseries, "switch.buffer_occupancy_bytes")
                   : nullptr) {
    const double buffer_bytes = static_cast<double>(cfg.rsw.buffer_total.count_bytes());
    core::Cdf bin_means;
    std::int64_t max_bytes = 0;
    for (const telemetry::SeriesBin& b : occ->bins) {
      if (b.count == 0) continue;
      bin_means.add(static_cast<double>(b.sum) / static_cast<double>(b.count));
      max_bytes = std::max(max_bytes, b.max);
    }
    if (bin_means.size() > 0) s.p99_occ = bin_means.quantile(0.99) / buffer_bytes;
    s.max_occ = static_cast<double>(max_bytes) / buffer_bytes;
  }
  for (const telemetry::SeriesSnapshot& series : r.timeseries) {
    if (series.name.rfind("transport.", 0) == 0) s.transport_series.push_back(series);
  }
  s.tracepoints = std::move(r.tracepoints);
  analysis::FctTable table;
  table.add_all(r.flows.records);
  s.fct = table.overall();
  s.fct_completed = table.completed();
  s.fct_incomplete = table.incomplete();
  if (exports_ledger(c)) s.flows = std::move(r.flows);
  return s;
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

/// True when `law` took none of its own actions in a run (DCTCP never cut
/// cwnd on a mark, SACK never resent a hole), so its row measured NewReno.
bool inactive(Law law, const transport::TransportMux::Stats& stats) {
  return (law == Law::kDctcp && stats.dctcp_cwnd_reductions == 0) ||
         (law == Law::kSack && stats.sack_retransmits == 0);
}

/// A per-role FCT row's quantile and transfer-count columns, as printed.
std::string fct_columns(const analysis::FctCell& cell) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%10.3f %10.3f %10.3f %8.3f %8.3f %8.3f %9lld",
                cell.fct_us.quantile(0.50) / 1e3, cell.fct_us.quantile(0.99) / 1e3,
                cell.fct_us.quantile(0.999) / 1e3, cell.slowdown.quantile(0.50),
                cell.slowdown.quantile(0.99), cell.slowdown.quantile(0.999),
                static_cast<long long>(cell.count));
  return buf;
}

/// A fleet-merged FCT row's slowdown quantile and transfer-count columns.
std::string merged_columns(const analysis::FctCell& cell, std::int64_t completed,
                           std::int64_t incomplete) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%8.3f %8.3f %8.3f %10lld %11lld",
                cell.slowdown.quantile(0.50), cell.slowdown.quantile(0.99),
                cell.slowdown.quantile(0.999), static_cast<long long>(completed),
                static_cast<long long>(incomplete));
  return buf;
}

/// The marker for a variant row whose printed columns equal its NewReno
/// row's: the variant changed nothing the table can show.
const char* same_as_newreno(Law law, const std::string& columns,
                            const std::string& newreno_columns) {
  return law != Law::kNewReno && columns == newreno_columns ? "  = newreno" : "";
}

}  // namespace

int main() {
  bench::BenchReport report{"ablation_transport"};
  bench::banner("Ablation: scripted packet emission vs flow-level TCP, and FCT tails",
                "Figures 12, 14; Sections 3 (transport substitution), 5-7 (flow "
                "behavior under congestion and loss)");
  bench::BenchEnv env;
  const topology::Fleet& fleet = env.fleet();
  const std::int64_t seconds = bench::BenchEnv::effective_seconds(1);
  const faults::FaultPlan heavy{faults::heavy_profile()};
  const telemetry::ObsConfig env_obs = env.obs();

  // --- The grid: every capture any table below reads, each once ------------
  // need() drops repeats, so each distinct configuration runs once (36 captures).
  std::vector<Capture> grid;
  const auto need = [&grid](const Capture& c) {
    if (std::find(grid.begin(), grid.end(), c) == grid.end()) grid.push_back(c);
  };
  for (const RoleRow& r : kRoles) {
    need({.role = r.role, .law = Law::kScripted});  // Figure 12 (Web: Figure 14)
    need({.role = r.role, .law = Law::kNewReno});   // Figure 12, cwnd (Web: Figure 14)
  }
  need({.role = core::HostRole::kHadoop, .law = Law::kNewReno});  // retransmissions
  need({.role = core::HostRole::kHadoop, .law = Law::kNewReno, .heavy = true});
  for (const RoleRow& r : kRoles) {
    for (const Law law : {Law::kNewReno, Law::kSack}) {  // NewReno vs SACK
      need({.role = r.role, .law = law, .heavy = true});
    }
  }
  for (const RoleRow& r : kRoles) {
    for (const Law law : {Law::kNewReno, Law::kDctcp}) {  // Reno vs DCTCP
      need({.role = r.role, .law = law, .incast = true});
    }
  }
  for (const bool faulted : {false, true}) {  // FCT tables
    for (const RoleRow& r : kFctRoles) {
      need({.role = r.role, .law = Law::kScripted, .heavy = faulted});
      for (const Variant& v : kVariants) need({.role = r.role, .law = v.law, .heavy = faulted});
    }
  }

  const std::vector<Summary> summaries = env.pool().parallel_map(
      grid, [&](const Capture& c) { return summarize(fleet, c, seconds, heavy, env_obs); });
  const auto at = [&](const Capture& c) -> const Summary& {
    return summaries.at(
        static_cast<std::size_t>(std::find(grid.begin(), grid.end(), c) - grid.begin()));
  };

  // --- Figure 12: packet-size mode split, scripted vs emergent ------------
  std::printf("\nPacket-size mode split (fraction of frames; small = ACK/control mode,\n");
  std::printf("full = MSS mode; remainder is mid-sized singles):\n");
  std::printf("%-8s | %23s | %23s\n", "", "scripted", "tcp (emergent)");
  std::printf("%-8s | %7s %7s %7s | %7s %7s %7s\n", "role", "small", "full", "mid",
              "small", "full", "mid");
  for (const RoleRow& r : kRoles) {
    const analysis::PacketSizeModes& ms = at({.role = r.role, .law = Law::kScripted}).sizes;
    const analysis::PacketSizeModes& mt = at({.role = r.role, .law = Law::kNewReno}).sizes;
    std::printf("%-8s | %7.3f %7.3f %7.3f | %7.3f %7.3f %7.3f\n", r.name,
                ms.small_fraction, ms.full_fraction,
                1.0 - ms.small_fraction - ms.full_fraction, mt.small_fraction,
                mt.full_fraction, 1.0 - mt.small_fraction - mt.full_fraction);
    report.add_extra(std::string{"tcp_small_frac_"} + r.name, mt.small_fraction);
    report.add_extra(std::string{"tcp_full_frac_"} + r.name, mt.full_fraction);
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
  for (const RoleRow& r : kRoles) {
    const std::vector<telemetry::SeriesSnapshot>& series =
        at({.role = r.role, .law = Law::kNewReno}).transport_series;
    report.add_timeseries(std::string{"cwnd_"} + r.name, series);
    const telemetry::SeriesSnapshot* cwnd =
        telemetry::find_series(series, "transport.cwnd_bytes");
    if (cwnd == nullptr || cwnd->bins.empty()) {
      std::printf("%-8s %12s %12s %12s %9s\n", r.name, "-", "-", "-", "0");
      continue;
    }
    std::int64_t max_cwnd = 0;
    for (const telemetry::SeriesBin& b : cwnd->bins) max_cwnd = std::max(max_cwnd, b.max);
    std::printf("%-8s %12.0f %12.0f %12lld %9lld\n", r.name, bin_mean(cwnd->bins.front()),
                bin_mean(cwnd->bins.back()), static_cast<long long>(max_cwnd),
                static_cast<long long>(cwnd->samples));
    report.add_extra(std::string{"cwnd_last_mean_"} + r.name, bin_mean(cwnd->bins.back()));
  }

  // --- Figure 14: SYN interarrivals, scripted vs emergent -----------------
  // The Web role carries the paper's SYN workload (ephemeral front-end
  // connections); pooled cache/Hadoop flows open rarely by design.
  std::printf("\nSYN interarrivals at the monitored Web host (ms):\n");
  std::printf("%-10s %9s %9s %9s %9s %7s\n", "path", "p10", "p50", "p90", "p99", "syns");
  {
    const core::Cdf& cs = at({.role = core::HostRole::kWeb, .law = Law::kScripted}).syn_us;
    const core::Cdf& ct = at({.role = core::HostRole::kWeb, .law = Law::kNewReno}).syn_us;
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
  for (const auto& [name, faulted] : {std::pair{"off", false}, {"heavy", true}}) {
    const Summary& run =
        at({.role = core::HostRole::kHadoop, .law = Law::kNewReno, .heavy = faulted});
    if (faulted && !run.tracepoints.records.empty()) {
      // Flight-recorder evidence for the loss events the columns count:
      // drops, RTO fires, and fast-retransmit transitions in sim order,
      // merged into bench_<name>.tracepoints.jsonl by the report.
      report.add_tracepoints(run.tracepoints);
    }
    const transport::TransportMux::Stats& s = run.stats;
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
  // Under the heavy profile's ~16% path loss, NewReno's partial-ACK loop
  // repairs one hole per RTT and resends bytes the receiver already
  // buffered, so multi-hole windows routinely outlive the 200-ms RTO floor
  // and fall back to go-back-N. The SACK scoreboard retransmits exactly
  // the reported holes per pipe, so both timeout-driven repair (rtx_rto,
  // rto) and the sheer volume of retransmissions fall.
  std::printf("\nNewReno vs SACK recovery, heavy fault profile:\n");
  std::printf("%-8s %-8s %9s %8s %8s %8s %9s %6s %9s %7s\n", "role", "recovery", "segs",
              "rtx", "rtx_dup", "rtx_rto", "fast_rtx", "rto", "sack_rtx", "rescue");
  std::int64_t rto_total[2] = {0, 0};
  std::int64_t rtx_dupack_total[2] = {0, 0};
  for (const RoleRow& r : kRoles) {
    for (const Variant& v : {kVariants[0], kVariants[1]}) {  // newreno, sack
      const int idx = v.law == Law::kSack ? 1 : 0;
      const transport::TransportMux::Stats& s =
          at({.role = r.role, .law = v.law, .heavy = true}).stats;
      const char* rec_name = v.name;
      std::printf("%-8s %-8s %9lld %8lld %8lld %8lld %9lld %6lld %9lld %7lld\n", r.name,
                  rec_name, static_cast<long long>(s.segments_sent),
                  static_cast<long long>(s.retransmit_segments),
                  static_cast<long long>(s.rtx_dupack_segments),
                  static_cast<long long>(s.rtx_rto_segments),
                  static_cast<long long>(s.fast_retransmits),
                  static_cast<long long>(s.rto_fired),
                  static_cast<long long>(s.sack_retransmits),
                  static_cast<long long>(s.sack_rescue_retransmits));
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
  // should hold the occupancy tail near K and retransmit less.
  std::printf("\nReno vs DCTCP, incast-scale shared buffer (32 KB), no faults:\n");
  std::printf("%-8s %-6s %9s %9s %9s %9s %9s %9s\n", "role", "cc", "rtx_rate", "sw_drops",
              "marks", "p99.occ", "max.occ", "segs");
  for (const RoleRow& r : kRoles) {
    for (const auto cc : {transport::CongestionControl::kNewReno,
                          transport::CongestionControl::kDctcp}) {
      const bool dctcp = cc == transport::CongestionControl::kDctcp;
      const Summary& run =
          at({.role = r.role, .law = dctcp ? Law::kDctcp : Law::kNewReno, .incast = true});
      const transport::TransportMux::Stats& s = run.stats;
      const double rtx_rate =
          s.segments_sent > 0 ? static_cast<double>(s.retransmit_segments) /
                                    static_cast<double>(s.segments_sent)
                              : 0.0;
      const char* cc_name = transport::to_string(cc);
      std::printf("%-8s %-6s %9.4f %9lld %9lld %9.3f %9.3f %9lld\n", r.name, cc_name,
                  rtx_rate, static_cast<long long>(run.sw_drops),
                  static_cast<long long>(run.marks), run.p99_occ, run.max_occ,
                  static_cast<long long>(s.segments_sent));
      report.add_extra(std::string{"rtx_rate_"} + cc_name + "_" + r.name, rtx_rate);
      report.add_extra(std::string{"p99_occ_"} + cc_name + "_" + r.name, run.p99_occ);
      report.add_extra(std::string{"sw_drops_"} + cc_name + "_" + r.name, run.sw_drops);
      if (dctcp) report.add_extra(std::string{"ecn_marks_"} + r.name, run.marks);
    }
  }

  // --- FCT and slowdown per role, per variant -----------------------------
  // Fault-free, every variant should sit near slowdown 1 at p50 — transfers
  // see an idle-ish network. Under the heavy profile's path loss, NewReno's
  // one-hole-per-RTT repair and go-back-N timeouts stretch the tail; the
  // SACK scoreboard repairs exactly the reported holes, so its p99
  // slowdown must not exceed NewReno's (the CI bench-smoke asserts exactly
  // that on the fleet-merged extras below).
  for (const auto& [fault_name, faulted] : {std::pair{"off", false}, {"heavy", true}}) {
    std::printf("\nFCT and slowdown per role, faults=%s:\n", fault_name);
    std::printf("%-8s %-9s %10s %10s %10s %8s %8s %8s %9s %9s %9s\n", "role", "variant",
                "fct_p50ms", "fct_p99ms", "fct_p999ms", "sd_p50", "sd_p99", "sd_p999",
                "transfers", "ce_marks", "sw_drops");
    for (const RoleRow& r : kFctRoles) {
      const Summary& scripted = at({.role = r.role, .law = Law::kScripted, .heavy = faulted});
      const core::Cdf& durations_ms = scripted.flow_durations_ms;
      std::printf("%-8s %-9s %10.3f %10.3f %10.3f %8s %8s %8s %9zu %9lld %9lld\n", r.name,
                  "scripted", durations_ms.empty() ? 0.0 : durations_ms.quantile(0.50),
                  durations_ms.empty() ? 0.0 : durations_ms.quantile(0.99),
                  durations_ms.empty() ? 0.0 : durations_ms.quantile(0.999), "-", "-", "-",
                  durations_ms.size(), static_cast<long long>(scripted.marks),
                  static_cast<long long>(scripted.sw_drops));
      const std::string newreno_columns =
          fct_columns(at({.role = r.role, .law = Law::kNewReno, .heavy = faulted}).fct);
      for (const Variant& v : kVariants) {
        const Summary& run = at({.role = r.role, .law = v.law, .heavy = faulted});
        const std::string columns = fct_columns(run.fct);
        std::printf("%-8s %-9s %s %9lld %9lld%s%s\n", r.name, v.name, columns.c_str(),
                    static_cast<long long>(run.marks), static_cast<long long>(run.sw_drops),
                    inactive(v.law, run.stats) ? "  inactive" : "",
                    same_as_newreno(v.law, columns, newreno_columns));
        report.add_extra(std::string{"fct_p99_slowdown_"} + v.name + "_" + fault_name + "_" +
                             r.name,
                         run.fct.slowdown.quantile(0.99));
      }
    }
  }

  // Fleet-merged headlines per (variant, faults) — what the CI bench-smoke
  // asserts on: under heavy faults the SACK scoreboard's p99 slowdown must
  // not exceed NewReno's.
  std::printf("\nFleet-merged slowdown (all roles), per variant:\n");
  std::printf("%-9s %-7s %8s %8s %8s %10s %11s\n", "variant", "faults", "sd_p50", "sd_p99",
              "sd_p999", "completed", "incomplete");
  std::string newreno_columns[2];
  for (const Variant& v : kVariants) {
    for (const auto& [fault_name, faulted] : {std::pair{"off", false}, {"heavy", true}}) {
      analysis::FctCell merged;
      std::int64_t completed = 0;
      std::int64_t incomplete = 0;
      for (const RoleRow& r : kFctRoles) {
        const Summary& run = at({.role = r.role, .law = v.law, .heavy = faulted});
        merged.merge(run.fct);
        completed += run.fct_completed;
        incomplete += run.fct_incomplete;
      }
      const std::string columns = merged_columns(merged, completed, incomplete);
      if (v.law == Law::kNewReno) newreno_columns[faulted ? 1 : 0] = columns;
      std::printf("%-9s %-7s %s%s\n", v.name, fault_name, columns.c_str(),
                  same_as_newreno(v.law, columns, newreno_columns[faulted ? 1 : 0]));
      report.add_extra(std::string{"fct_p99_slowdown_"} + v.name + "_" + fault_name,
                       merged.slowdown.quantile(0.99));
      report.add_extra(std::string{"fct_completed_"} + v.name + "_" + fault_name, completed);
    }
  }
  // The report's "fct" section: the heavy SACK table, per-cell quantiles —
  // the granularity aggregate_reports.py folds into the trajectory — and
  // the same runs' ledgers.
  analysis::FctTable sack_heavy;
  for (const RoleRow& r : kFctRoles) {
    const Summary& run = at({.role = r.role, .law = Law::kSack, .heavy = true});
    sack_heavy.add_all(run.flows.records);
    report.add_flows(run.flows);
  }
  report.add_fct(sack_heavy.to_json());

  std::printf(
      "\nReading: the TCP columns must show both Figure 12 modes without any\n"
      "scripted size distribution feeding them, SYN interarrival quantiles\n"
      "within the same regime as the scripted draw, and a retransmit rate\n"
      "that moves from ~0 to visibly positive under the heavy profile.\n"
      "In the Reno-vs-DCTCP table, the dctcp rows must mark (marks > 0)\n"
      "and hold a lower occupancy tail and/or retransmit rate than the\n"
      "reno rows wherever the tight buffer actually contends.\n"
      "In the FCT tables, fault-free p50 slowdowns should sit near 1 for\n"
      "every variant; under the heavy profile the sack rows must hold a p99\n"
      "slowdown at or below the newreno rows (hole-exact repair vs\n"
      "one-hole-per-RTT plus go-back-N timeouts). A row marked 'inactive'\n"
      "took none of its variant's own actions (DCTCP: no cwnd cut on a CE\n"
      "mark; SACK: no hole retransmission), so it measured plain NewReno; a\n"
      "row marked '= newreno' prints exactly its newreno row's numbers, so\n"
      "its variant changed nothing the table shows.\n");
  return 0;
}
