// Fault-tolerance ablation: how far do realistic fabric and collection
// faults move the paper's anchor metrics? Sweeps the built-in fault
// profiles (off / light / heavy) over the same seeded workload and
// reports, per profile:
//
//   - Table 3 locality shares (Fbflow view of a fleet flow run)
//   - Figure 6 flow-size quantiles (surviving flows)
//   - Table 4-style heavy-hitter count: the minimal set of (src, dst)
//     host pairs covering 50% of sampled bytes
//   - every loss counter the fault layer maintains (scribe_dropped,
//     scribe_retries, scribe_delayed, tag_failures_injected, partial
//     rows, host-down skips, capture drops)
//
// The workload seed is fixed across profiles, so every delta is caused by
// the fault schedule alone; and every fault decision is content-keyed, so
// each profile's row is bit-identical for any FBDCSIM_THREADS. The rack
// captures (Web mirror losses, Hadoop repair kinds) come from the grid.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ablations.h"
#include "fbdcsim/core/stats.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/monitoring/fbflow.h"
#include "fbdcsim/runtime/sharded_fleet.h"
#include "fbdcsim/workload/fleet_flows.h"

namespace fbdcsim::ablations {
namespace {

constexpr struct {
  const char* name;
  faults::Profile profile;
} kProfiles[] = {
    {"off", faults::Profile::kOff},
    {"light", faults::Profile::kLight},
    {"heavy", faults::Profile::kHeavy},
};

/// The short rack capture for the mirror-loss side of the fault model
/// (capture competes with live traffic; §3.3.2); fault-free, it is the
/// shared Web baseline.
constexpr Capture mirror_capture(faults::Profile profile) {
  return {.role = kWebBaseline.role, .seconds = kWebBaseline.seconds, .faults = profile};
}

/// The Hadoop TCP capture whose retransmissions the repair-kind table splits.
constexpr Capture repair_capture(faults::Profile profile) {
  return {.role = core::HostRole::kHadoop,
          .seconds = 1,
          .change = Change::kTcp,
          .faults = profile};
}

void reduce(const Captured& captured, Summary& out) {
  out.faults.capture_dropped = captured.trace.result.capture_dropped;
  if (const transport::TransportMux* mux = captured.rack.transport_mux()) {
    out.faults.tcp = mux->stats();
  }
}

struct ProfileResult {
  const char* name{};
  std::array<double, core::kNumLocalities> locality{};
  double flow_kb_p50{};
  double flow_kb_p90{};
  double flow_kb_p99{};
  std::int64_t flows{};
  std::size_t scuba_rows{};
  std::int64_t hh_count{};
  std::int64_t scribe_dropped{};
  std::int64_t scribe_retries{};
  std::int64_t scribe_delayed{};
  std::int64_t tag_failures_injected{};
  std::int64_t partial_rows{};
  std::int64_t capture_dropped{};
};

/// Minimal number of (src, dst) host pairs covering half the sampled bytes
/// — the Table 4 heavy-hitter construction applied to the Fbflow table.
std::int64_t heavy_hitter_count(const monitoring::ScubaTable& scuba) {
  std::unordered_map<std::uint64_t, std::int64_t> pair_bytes;
  std::int64_t total = 0;
  for (const monitoring::TaggedSample& r : scuba.rows()) {
    if (r.partial) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(r.src_host.value()) << 32) | r.dst_host.value();
    pair_bytes[key] += r.sample.frame_bytes;
    total += r.sample.frame_bytes;
  }
  std::vector<std::int64_t> sizes;
  sizes.reserve(pair_bytes.size());
  for (const auto& [key, bytes] : pair_bytes) sizes.push_back(bytes);
  std::sort(sizes.begin(), sizes.end(), std::greater<>{});
  std::int64_t covered = 0;
  std::int64_t count = 0;
  for (const std::int64_t b : sizes) {
    if (covered * 2 >= total) break;
    covered += b;
    ++count;
  }
  return count;
}

ProfileResult run_profile(const char* name, const faults::FaultPlan* plan,
                          const topology::Fleet& fleet, runtime::ThreadPool& pool) {
  ProfileResult out;
  out.name = name;

  // Fleet flow run through the Fbflow pipeline (Table 3 methodology), with
  // the fault plan active in both the generator (host crash epochs) and the
  // pipeline (Scribe / tagger faults).
  workload::FleetGenConfig cfg;
  cfg.horizon = core::Duration::hours(2);
  cfg.epoch = core::Duration::minutes(30);
  cfg.seed = 2015;
  cfg.rate_scale = 0.005;
  cfg.faults = plan;
  const workload::FleetFlowGenerator gen{fleet, cfg};
  monitoring::FbflowPipeline fbflow{fleet, monitoring::kDefaultSamplingRate,
                                    core::RngStream{99}, plan};

  core::Cdf sizes;
  const runtime::ShardedFleetRunner runner{gen, pool};
  runner.stream([&](const core::FlowRecord& flow) {
    fbflow.offer_flow(flow);
    sizes.add(static_cast<double>(flow.bytes.count_bytes()));
    ++out.flows;
  });

  out.locality = fbflow.scuba().locality_bytes(fbflow.sampling_rate()).percentages();
  out.flow_kb_p50 = sizes.quantile(0.50) / 1e3;
  out.flow_kb_p90 = sizes.quantile(0.90) / 1e3;
  out.flow_kb_p99 = sizes.quantile(0.99) / 1e3;
  out.scuba_rows = fbflow.scuba().size();
  out.hh_count = heavy_hitter_count(fbflow.scuba());
  out.scribe_dropped = fbflow.scribe_dropped();
  out.scribe_retries = fbflow.scribe_retries();
  out.scribe_delayed = fbflow.scribe_delayed();
  out.tag_failures_injected = fbflow.tag_failures_injected();
  out.partial_rows = fbflow.partial_rows();
  return out;
}

}  // namespace

void fault_tolerance_plan(Grid& grid) {
  for (const auto& p : kProfiles) {
    grid.need(mirror_capture(p.profile), &reduce);
    grid.need(repair_capture(p.profile), &reduce);
  }
}

void fault_tolerance(const Context& ctx, bench::Anchors& anchors) {
  const topology::Fleet fleet = workload::build_fleet_experiment_fleet();
  std::printf("fleet: %zu hosts, %zu clusters\n\n", fleet.num_hosts(),
              fleet.clusters().size());

  const faults::FaultPlan light{faults::light_profile()};
  const faults::FaultPlan heavy{faults::heavy_profile()};
  const faults::FaultPlan* const plans[] = {nullptr, &light, &heavy};

  std::vector<ProfileResult> rows;
  for (std::size_t i = 0; i < std::size(kProfiles); ++i) {
    rows.push_back(run_profile(kProfiles[i].name, plans[i], fleet, ctx.env.pool()));
    rows.back().capture_dropped =
        ctx.grid.at(mirror_capture(kProfiles[i].profile)).faults.capture_dropped;
    ctx.report.add_extra(std::string{"cap_drop_"} + kProfiles[i].name,
                         rows.back().capture_dropped);
  }
  const ProfileResult& base = rows.front();

  std::printf("%-7s %28s %26s %6s\n", "", "Table 3 locality (% bytes)",
              "Fig 6 flow size (KB)", "T4");
  std::printf("%-7s %6s %6s %6s %6s  %8s %8s %8s %6s\n", "profile", "rack", "clus", "dc",
              "interdc", "p50", "p90", "p99", "HHs");
  for (const ProfileResult& r : rows) {
    std::printf("%-7s %6.1f %6.1f %6.1f %6.1f  %8.2f %8.2f %8.2f %6lld\n", r.name,
                r.locality[0], r.locality[1], r.locality[2], r.locality[3], r.flow_kb_p50,
                r.flow_kb_p90, r.flow_kb_p99, static_cast<long long>(r.hh_count));
  }

  std::printf("\nDeltas vs off:\n");
  for (const ProfileResult& r : rows) {
    if (r.name == base.name) continue;
    std::printf("%-7s %+6.1f %+6.1f %+6.1f %+6.1f  %+8.2f %+8.2f %+8.2f %+6lld\n", r.name,
                r.locality[0] - base.locality[0], r.locality[1] - base.locality[1],
                r.locality[2] - base.locality[2], r.locality[3] - base.locality[3],
                r.flow_kb_p50 - base.flow_kb_p50, r.flow_kb_p90 - base.flow_kb_p90,
                r.flow_kb_p99 - base.flow_kb_p99,
                static_cast<long long>(r.hh_count - base.hh_count));
  }

  std::printf("\nLoss accounting (per profile):\n");
  std::printf("%-7s %9s %10s %9s %9s %9s %9s %9s %9s\n", "profile", "flows", "scuba_rows",
              "scr_drop", "scr_retry", "scr_delay", "tag_inj", "partial", "cap_drop");
  for (const ProfileResult& r : rows) {
    std::printf("%-7s %9lld %10zu %9lld %9lld %9lld %9lld %9lld %9lld\n", r.name,
                static_cast<long long>(r.flows), r.scuba_rows,
                static_cast<long long>(r.scribe_dropped),
                static_cast<long long>(r.scribe_retries),
                static_cast<long long>(r.scribe_delayed),
                static_cast<long long>(r.tag_failures_injected),
                static_cast<long long>(r.partial_rows),
                static_cast<long long>(r.capture_dropped));
  }

  // --- Transport repair kinds per profile ---------------------------------
  // The flow-level TCP engine splits its retransmissions by what drove the
  // repair: dupack evidence (NewReno's hole-per-RTT fast recovery) versus
  // the go-back-N stream after an RTO. Scripted captures cannot express
  // this; the split is the fault benches' view of how much loss each
  // profile turns into timeouts. bench_ablation_transport contrasts the
  // SACK scoreboard on the same profile.
  std::printf("\nTransport retransmissions by repair kind (Hadoop, recovery=%s):\n",
              transport::to_string(transport::LossRecovery::kNewReno));
  std::printf("%-7s %9s %8s %8s %8s %9s %6s %9s\n", "profile", "segs", "rtx", "rtx_dup",
              "rtx_rto", "fast_rtx", "rto", "sack_rtx");
  for (const auto& [name, profile] : kProfiles) {
    const transport::TransportMux::Stats& s = ctx.grid.at(repair_capture(profile)).faults.tcp;
    std::printf("%-7s %9lld %8lld %8lld %8lld %9lld %6lld %9lld\n", name,
                static_cast<long long>(s.segments_sent),
                static_cast<long long>(s.retransmit_segments),
                static_cast<long long>(s.rtx_dupack_segments),
                static_cast<long long>(s.rtx_rto_segments),
                static_cast<long long>(s.fast_retransmits),
                static_cast<long long>(s.rto_fired),
                static_cast<long long>(s.sack_retransmits));
    ctx.report.add_extra(std::string{"rtx_dupack_"} + name, s.rtx_dupack_segments);
    ctx.report.add_extra(std::string{"rtx_rto_"} + name, s.rtx_rto_segments);
    ctx.report.add_extra(std::string{"rto_"} + name, s.rto_fired);
  }

  // The heavy tier injects several times the light tier's faults, so the
  // losses each layer counts must grow with it, while the Table 3 matrix,
  // the paper's headline, must stay put: collection losses thin it
  // without bias.
  const auto rtx = [&ctx](faults::Profile profile) {
    return static_cast<double>(
        ctx.grid.at(repair_capture(profile)).faults.tcp.retransmit_segments);
  };
  bench::check_contrast(anchors, "3.3", "Heavy vs light faults: Hadoop TCP retransmissions",
                        rtx(faults::Profile::kLight), rtx(faults::Profile::kHeavy), 2.0,
                        bench::Direction::kUp);
  bench::check_contrast(anchors, "3.3", "Heavy vs light faults: Fbflow partial rows",
                        static_cast<double>(rows[1].partial_rows),
                        static_cast<double>(rows[2].partial_rows), 2.0, bench::Direction::kUp);
  double locality_shift = 0.0;
  for (std::size_t i = 0; i < base.locality.size(); ++i) {
    locality_shift = std::max(locality_shift, std::abs(rows[2].locality[i] - base.locality[i]));
  }
  bench::check(anchors, "3.3", "Heavy faults move Table 3 locality < 1 pp", 0, 1,
               locality_shift);
}

}  // namespace fbdcsim::ablations
