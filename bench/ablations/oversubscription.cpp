// Ablation: oversubscription sweep (§4.4's provisioning implication).
//
// "Efficient fabrics may benefit from variable degrees of oversubscription
// and less intra-rack bandwidth than typically deployed." This bench routes
// the fleet workload over 4-post builds with varying RSW->CSW uplink
// capacity and reports, per cluster type, the aggregation-layer p99
// utilization — showing which cluster types actually need the bandwidth a
// uniform fabric would give everyone.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "ablations.h"
#include "fbdcsim/monitoring/link_stats.h"
#include "fbdcsim/runtime/sharded_fleet.h"
#include "fbdcsim/workload/fleet_flows.h"

namespace fbdcsim::ablations {
namespace {

topology::Fleet sweep_fleet() {
  topology::StandardFleetConfig cfg;
  cfg.sites = 2;
  cfg.datacenters_per_site = 1;
  cfg.frontend_clusters = 2;
  cfg.cache_clusters = 1;
  cfg.hadoop_clusters = 2;
  cfg.database_clusters = 1;
  cfg.service_clusters = 2;
  cfg.racks_per_cluster = 16;
  cfg.cache_racks_per_cluster = 8;
  cfg.hosts_per_rack = 32;  // deep racks: oversubscription is visible
  cfg.frontend_web_racks = 12;
  cfg.frontend_cache_racks = 3;
  cfg.frontend_multifeed_racks = 1;
  return topology::build_standard_fleet(cfg);
}

}  // namespace

void oversubscription(const Context& ctx, bench::Anchors& anchors) {
  const topology::Fleet fleet = sweep_fleet();
  std::printf("fleet: %zu hosts, 32 hosts/rack, 4 uplinks/rack\n", fleet.num_hosts());
  std::printf("(oversubscription = sum of host NICs / sum of RSW uplink capacity)\n\n");

  std::printf("%-22s  %10s", "uplink speed (x4)", "oversub");
  const topology::ClusterType kTypes[] = {
      topology::ClusterType::kHadoop, topology::ClusterType::kFrontend,
      topology::ClusterType::kCache, topology::ClusterType::kService};
  for (const auto t : kTypes) std::printf("  %9s", topology::to_string(t));
  std::printf("   (p99 RSW->CSW util)\n");

  // The workload is identical at every sweep point: generate the flow list
  // once (in parallel), then route it over each candidate fabric
  // concurrently — one Network/Router/LinkStats per task.
  workload::FleetGenConfig cfg;
  cfg.horizon = core::Duration::hours(1);
  cfg.epoch = core::Duration::minutes(15);
  cfg.seed = 77;
  const workload::FleetFlowGenerator gen{fleet, cfg};
  runtime::ThreadPool& pool = ctx.env.pool();
  const runtime::ShardedFleetRunner runner{gen, pool};
  const std::vector<core::FlowRecord> flows = runner.collect_flows();

  struct SweepRow {
    std::int64_t gbps{0};
    double p99[4]{};
  };
  const std::vector<std::int64_t> speeds{5, 10, 20, 40};
  const auto rows = pool.parallel_map(speeds, [&](const std::int64_t& gbps) {
    topology::FourPostConfig net_cfg;
    net_cfg.rsw_to_csw = core::DataRate::gigabits_per_sec(gbps);
    const topology::Network net = topology::FourPostBuilder{net_cfg}.build(fleet);
    const topology::Router router{fleet, net};
    monitoring::LinkStats stats{net, cfg.horizon};
    for (const auto& flow : flows) {
      stats.add_path(router.route(flow.src_host, flow.dst_host, flow.tuple), flow.start,
                     flow.duration, flow.bytes);
    }
    SweepRow row;
    row.gbps = gbps;
    for (std::size_t t = 0; t < 4; ++t) {
      auto utils = stats.utilizations_where([&](const topology::Link& link) {
        if (link.from.kind != topology::NodeRef::Kind::kSwitch) return false;
        const auto& sw = net.sw(core::SwitchId{link.from.index});
        if (sw.kind != topology::SwitchKind::kRsw) return false;
        if (link.to.kind != topology::NodeRef::Kind::kSwitch) return false;
        return fleet.cluster(sw.cluster).type == kTypes[t];
      });
      core::Cdf cdf{std::move(utils)};
      row.p99[t] = cdf.p99();
    }
    return row;
  });

  for (const SweepRow& row : rows) {
    const double oversub = 32.0 * 10.0 / (4.0 * static_cast<double>(row.gbps));
    std::printf("%-22s  %9.1f:1", (std::to_string(row.gbps) + " Gbps").c_str(), oversub);
    for (std::size_t t = 0; t < 4; ++t) std::printf("  %8.1f%%", row.p99[t] * 100.0);
    std::printf("\n");
  }

  // Uplink utilization must follow the uplink capacity (16:1 vs 2:1 is an
  // 8x capacity ratio), and at one oversubscription the hot and idle
  // cluster types must sit an order of magnitude apart: a uniform fabric
  // overbuilds one or congests the other.
  constexpr std::size_t kCache = 2;
  constexpr std::size_t kService = 3;
  bench::check_contrast(anchors, "4.4", "Cache p99 uplink util follows oversub (16:1 vs 2:1)",
                        rows.back().p99[kCache], rows.front().p99[kCache], 4.0,
                        bench::Direction::kUp);
  bench::check_contrast(anchors, "4.4", "Cache uplinks need >=10x Service's (p99 util, 8:1)",
                        rows[1].p99[kService], rows[1].p99[kCache], 10.0,
                        bench::Direction::kUp);
}

}  // namespace fbdcsim::ablations
