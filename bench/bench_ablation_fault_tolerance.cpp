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
// each profile's row is bit-identical for any FBDCSIM_THREADS.
#include <array>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "fbdcsim/core/stats.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/monitoring/fbflow.h"
#include "fbdcsim/runtime/sharded_fleet.h"
#include "fbdcsim/transport/mux.h"
#include "fbdcsim/workload/fleet_flows.h"
#include "fbdcsim/workload/rack_sim.h"

using namespace fbdcsim;

namespace {

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
  std::int64_t capture_injected_dropped{};
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
                          const topology::Fleet& fleet, runtime::ThreadPool& pool,
                          bench::BenchEnv& env) {
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

  // One short rack capture for the mirror-loss side of the fault model
  // (capture competes with live traffic; §3.3.2).
  const bench::RoleTrace rack =
      env.capture(core::HostRole::kWeb, 2,
                  [plan](workload::RackSimConfig& rc) { rc.faults = plan; });
  out.capture_dropped = rack.result.capture_dropped;
  out.capture_injected_dropped = rack.result.capture_injected_dropped;
  return out;
}

}  // namespace

int main() {
  bench::BenchReport report{"ablation_fault_tolerance"};
  bench::banner("Ablation: paper-anchor metrics under fault-injection profiles",
                "Sections 3.3, 4.3, 5.1, 5.3");
  bench::BenchEnv env;

  const topology::Fleet fleet = workload::build_fleet_experiment_fleet();
  std::printf("fleet: %zu hosts, %zu clusters\n\n", fleet.num_hosts(),
              fleet.clusters().size());

  const faults::FaultPlan light{faults::light_profile()};
  const faults::FaultPlan heavy{faults::heavy_profile()};
  runtime::ThreadPool pool;

  std::vector<ProfileResult> rows;
  rows.push_back(run_profile("off", nullptr, fleet, pool, env));
  rows.push_back(run_profile("light", &light, fleet, pool, env));
  rows.push_back(run_profile("heavy", &heavy, fleet, pool, env));
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
  const transport::LossRecovery recovery = transport::LossRecovery::kNewReno;
  std::printf("\nTransport retransmissions by repair kind (Hadoop, recovery=%s):\n",
              transport::to_string(recovery));
  std::printf("%-7s %9s %8s %8s %8s %9s %6s %9s\n", "profile", "segs", "rtx", "rtx_dup",
              "rtx_rto", "fast_rtx", "rto", "sack_rtx");
  for (const auto& [name, plan] :
       {std::pair<const char*, const faults::FaultPlan*>{"off", nullptr},
        {"light", &light},
        {"heavy", &heavy}}) {
    workload::RackSimConfig rc = workload::default_rack_config(
        env.fleet(), core::HostRole::kHadoop,
        core::Duration::seconds(bench::BenchEnv::effective_seconds(1)));
    rc.transport = workload::Transport::kTcp;
    rc.tcp.recovery = recovery;
    rc.faults = plan;
    workload::RackSimulation rack{env.fleet(), rc};
    (void)rack.run();
    transport::TransportMux::Stats s;
    if (rack.transport_mux() != nullptr) s = rack.transport_mux()->stats();
    std::printf("%-7s %9lld %8lld %8lld %8lld %9lld %6lld %9lld\n", name,
                static_cast<long long>(s.segments_sent),
                static_cast<long long>(s.retransmit_segments),
                static_cast<long long>(s.rtx_dupack_segments),
                static_cast<long long>(s.rtx_rto_segments),
                static_cast<long long>(s.fast_retransmits),
                static_cast<long long>(s.rto_fired),
                static_cast<long long>(s.sack_retransmits));
    report.add_extra(std::string{"rtx_dupack_"} + name, s.rtx_dupack_segments);
    report.add_extra(std::string{"rtx_rto_"} + name, s.rtx_rto_segments);
    report.add_extra(std::string{"rto_"} + name, s.rto_fired);
  }

  std::printf(
      "\nReading: locality shares and flow-size quantiles should move only\n"
      "slightly under 'light' (collection losses are unbiased thinning) and\n"
      "visibly under 'heavy' (host crash epochs remove whole hosts' flows;\n"
      "partial rows leave topology-keyed aggregates). The loss counters are\n"
      "also exported as telemetry Sim counters in this bench's JSON report\n"
      "(fbflow.scribe_dropped, fbflow.tag_failures_injected, capture.dropped).\n");
  return 0;
}
