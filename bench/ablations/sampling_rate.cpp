// Ablation: Fbflow sampling-rate sweep. Is 1:30,000 sampling sufficient to
// recover the Table 3 locality matrix? Sweep rates from 1:100 to 1:1M and
// report the matrix error vs ground truth (unsampled flow records).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "ablations.h"
#include "fbdcsim/monitoring/fbflow.h"
#include "fbdcsim/runtime/sharded_fleet.h"
#include "fbdcsim/workload/fleet_flows.h"

namespace fbdcsim::ablations {

void sampling_rate(const Context& ctx, bench::Anchors& anchors) {
  topology::StandardFleetConfig fleet_cfg;
  fleet_cfg.sites = 2;
  fleet_cfg.datacenters_per_site = 1;
  fleet_cfg.frontend_clusters = 2;
  fleet_cfg.cache_clusters = 1;
  fleet_cfg.hadoop_clusters = 2;
  fleet_cfg.database_clusters = 1;
  fleet_cfg.service_clusters = 1;
  fleet_cfg.racks_per_cluster = 12;
  fleet_cfg.hosts_per_rack = 6;
  fleet_cfg.frontend_web_racks = 8;
  fleet_cfg.frontend_cache_racks = 2;
  fleet_cfg.frontend_multifeed_racks = 1;
  const topology::Fleet fleet = topology::build_standard_fleet(fleet_cfg);
  workload::FleetGenConfig cfg;
  cfg.horizon = core::Duration::hours(2);
  cfg.epoch = core::Duration::minutes(30);
  cfg.rate_scale = 0.01;  // bounds the 1:100 sweep point's sample volume
  cfg.seed = 33;
  const workload::FleetFlowGenerator gen{fleet, cfg};

  // Generate once (in parallel, canonically ordered), then sweep the rates
  // concurrently — each sweep point replays the same flow list through its
  // own independent pipeline.
  runtime::ThreadPool& pool = ctx.env.pool();
  const runtime::ShardedFleetRunner runner{gen, pool};
  const std::vector<core::FlowRecord> flows = runner.collect_flows();

  // Ground truth locality shares from the raw flow records.
  double truth_bytes[core::kNumLocalities] = {};
  double truth_total = 0.0;
  for (const auto& f : flows) {
    const auto loc = fleet.locality(f.src_host, f.dst_host);
    truth_bytes[static_cast<int>(loc)] += static_cast<double>(f.bytes.count_bytes());
    truth_total += static_cast<double>(f.bytes.count_bytes());
  }
  std::printf("flows: %zu; ground-truth locality %%: %.1f / %.1f / %.1f / %.1f\n\n",
              flows.size(), truth_bytes[0] / truth_total * 100,
              truth_bytes[1] / truth_total * 100, truth_bytes[2] / truth_total * 100,
              truth_bytes[3] / truth_total * 100);

  struct SweepPoint {
    std::int64_t rate{0};
    std::size_t samples{0};
    std::array<double, core::kNumLocalities> pct{};
    double max_err{0.0};
  };
  const std::vector<std::int64_t> rates{100, 1'000, 10'000, 30'000, 100'000, 1'000'000};
  const auto points = pool.parallel_map(rates, [&](const std::int64_t& rate) {
    monitoring::FbflowPipeline fbflow{fleet, rate, core::RngStream{77}};
    for (const auto& f : flows) fbflow.offer_flow(f);
    SweepPoint p;
    p.rate = rate;
    p.samples = fbflow.scuba().size();
    p.pct = fbflow.scuba().locality_bytes(rate).percentages();
    for (int i = 0; i < core::kNumLocalities; ++i) {
      p.max_err = std::max(p.max_err, std::abs(p.pct[static_cast<std::size_t>(i)] -
                                               truth_bytes[i] / truth_total * 100.0));
    }
    return p;
  });

  std::printf("%-10s  %10s  %8s %8s %8s %8s  %12s\n", "rate", "samples", "rack%", "clus%",
              "dc%", "inter%", "max.abs.err");
  for (const SweepPoint& p : points) {
    std::printf("1:%-8lld  %10zu  %8.1f %8.1f %8.1f %8.1f  %11.2fpp\n",
                static_cast<long long>(p.rate), p.samples, p.pct[0], p.pct[1], p.pct[2],
                p.pct[3], p.max_err);
  }
  // The production rate must hold the matrix within ~1 pp, and only the
  // extreme rate (1:1M on a small fleet) may lose fidelity.
  const double production_err = points[3].max_err;  // 1:30,000
  const double extreme_err = points.back().max_err;  // 1:1,000,000
  bench::check(anchors, "3.3.1", "1:30,000 sampling keeps the matrix within ~1 pp", 0, 1,
               production_err);
  bench::check_contrast(anchors, "3.3.1", "1:1M sampling loses fidelity vs 1:30,000 (max err)",
                        production_err, extreme_err, 2.0, bench::Direction::kUp);
}

}  // namespace fbdcsim::ablations
