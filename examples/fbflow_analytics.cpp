// Fbflow analytics example: run the fleet-wide sampled monitoring pipeline
// (agents -> Scribe -> taggers -> Scuba) over a day of synthetic traffic
// and answer the kinds of questions the paper's operators ask — where does
// traffic go, which cluster types dominate, what does one host talk to.
//
// Usage: fbflow_analytics [hours] [sampling-rate]
//
// On exit the collected telemetry (pipeline sample counters, per-role flow
// counts, ...) is printed as a summary table.
#include <cstdio>
#include <cstdlib>

#include "fbdcsim/monitoring/fbflow.h"
#include "fbdcsim/telemetry/export.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/workload/fleet_flows.h"
#include "fbdcsim/workload/presets.h"

using namespace fbdcsim;

int main(int argc, char** argv) {
  const std::int64_t hours = argc > 1 ? std::atoll(argv[1]) : 6;
  const std::int64_t rate = argc > 2 ? std::atoll(argv[2]) : monitoring::kDefaultSamplingRate;

  const topology::Fleet fleet = workload::build_fleet_experiment_fleet();
  std::printf("fleet: %zu hosts across %zu datacenters; sampling 1:%lld for %lldh\n",
              fleet.num_hosts(), fleet.datacenters().size(), static_cast<long long>(rate),
              static_cast<long long>(hours));

  workload::FleetGenConfig cfg;
  cfg.horizon = core::Duration::hours(hours);
  cfg.epoch = core::Duration::minutes(30);
  cfg.seed = 11;
  const workload::FleetFlowGenerator gen{fleet, cfg};

  monitoring::FbflowPipeline fbflow{fleet, rate, core::RngStream{1}};
  std::int64_t flows = 0;
  gen.generate([&](const core::FlowRecord& flow) {
    fbflow.offer_flow(flow);
    ++flows;
  });
  std::printf("flows: %lld -> sampled headers: %zu (tag failures: %lld)\n\n",
              static_cast<long long>(flows), fbflow.scuba().size(),
              static_cast<long long>(fbflow.tag_failures()));

  // Query 1: fleet-wide locality (the Table 3 "All" row).
  const auto locality = fbflow.scuba().locality_bytes(rate);
  const auto pct = locality.percentages();
  std::printf("estimated traffic locality: rack %.1f%% | cluster %.1f%% | dc %.1f%% | "
              "inter-dc %.1f%%\n",
              pct[0], pct[1], pct[2], pct[3]);
  std::printf("estimated total volume: %.2f TB\n\n", locality.total() / 1e12);

  // Query 2: who generates the traffic.
  std::printf("traffic share by source cluster type:\n");
  const auto by_type = fbflow.scuba().bytes_by_cluster_type(fleet, rate);
  double total = 0;
  for (const auto& [type, bytes] : by_type) total += bytes;
  for (const auto& [type, bytes] : by_type) {
    std::printf("  %-9s %5.1f%%\n", topology::to_string(type), bytes / total * 100.0);
  }

  // Query 3: one Web server's outbound service mix (a Table 2 row).
  const core::HostId web = fleet.hosts_with_role(core::HostRole::kWeb)[0];
  std::printf("\noutbound mix of %s (a Web server):\n",
              fleet.host(web).addr.to_string().c_str());
  for (const auto& [role, bytes] : fbflow.scuba().outbound_by_dest_role(web, rate)) {
    if (bytes <= 0) continue;
    std::printf("  -> %-9s %8.1f MB\n", core::to_string(role), bytes / 1e6);
  }

  std::printf("\n");
  telemetry::print_summary(stdout, telemetry::MetricsRegistry::global().snapshot());
  return 0;
}
