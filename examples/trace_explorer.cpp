// Trace explorer: monitor any host role, capture its traffic, and print the
// full measurement panel the paper reports for monitored hosts — locality,
// destination-service mix, flow size/duration, packet sizes, SYN
// interarrivals, heavy hitters, and concurrency.
//
// Usage:
//   trace_explorer [web|cache-f|cache-l|hadoop|multifeed|slb|db] [seconds]
//
// On exit the collected telemetry (simulator event counts, switch packet
// counters, ...) is printed as a summary table.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "fbdcsim/analysis/concurrency.h"
#include "fbdcsim/analysis/flow_table.h"
#include "fbdcsim/analysis/heavy_hitters.h"
#include "fbdcsim/analysis/locality.h"
#include "fbdcsim/analysis/packet_stats.h"
#include "fbdcsim/telemetry/export.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/workload/presets.h"

using namespace fbdcsim;

namespace {

core::HostRole parse_role(const char* name) {
  const std::string s{name};
  if (s == "web") return core::HostRole::kWeb;
  if (s == "cache-f") return core::HostRole::kCacheFollower;
  if (s == "cache-l") return core::HostRole::kCacheLeader;
  if (s == "hadoop") return core::HostRole::kHadoop;
  if (s == "multifeed") return core::HostRole::kMultifeed;
  if (s == "slb") return core::HostRole::kSlb;
  if (s == "db") return core::HostRole::kDatabase;
  std::fprintf(stderr, "unknown role '%s'\n", name);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const core::HostRole role = argc > 1 ? parse_role(argv[1]) : core::HostRole::kCacheFollower;
  const std::int64_t seconds = argc > 2 ? std::atoll(argv[2]) : 10;

  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, role, core::Duration::seconds(seconds));
  workload::RackSimulation sim{fleet, cfg};
  const workload::RackSimResult result = sim.run();

  const core::Ipv4Addr self = fleet.host(cfg.monitored_host).addr;
  const analysis::AddrResolver resolver{fleet};

  std::printf("=== %s host %s: %zu packets over %lld s (%llu events) ===\n",
              core::to_string(role), self.to_string().c_str(), result.trace.size(),
              static_cast<long long>(seconds),
              static_cast<unsigned long long>(result.events));

  const auto loc = analysis::locality_shares(result.trace, self, resolver);
  std::printf("locality %%: rack %.1f | cluster %.1f | dc %.1f | inter-dc %.1f\n",
              loc[0], loc[1], loc[2], loc[3]);

  std::printf("dest-role %% of outbound bytes:");
  for (const auto& share : analysis::outbound_role_shares(result.trace, self, resolver)) {
    if (share.percent >= 0.05) {
      std::printf("  %s %.1f", core::to_string(share.role), share.percent);
    }
  }
  std::printf("\n");

  const core::Cdf sizes = analysis::packet_size_cdf(result.trace);
  std::printf("packet bytes: p10 %.0f med %.0f p90 %.0f  (%zu pkts)\n", sizes.p10(),
              sizes.median(), sizes.p90(), sizes.size());

  const auto flows = analysis::FlowTable::outbound_flows(result.trace, self);
  core::Cdf fsize, fdur;
  for (const auto& f : flows) {
    fsize.add(static_cast<double>(f.payload_bytes));
    fdur.add(f.duration().to_millis());
  }
  std::printf("flows: %zu | size KB: med %.2f p90 %.1f | dur ms: med %.1f p90 %.0f\n",
              flows.size(), fsize.median() / 1e3, fsize.p90() / 1e3, fdur.median(),
              fdur.p90());

  const core::Cdf syn = analysis::syn_interarrival_cdf(result.trace, self);
  std::printf("SYN interarrival ms: med %.2f p90 %.2f (%zu SYNs)\n", syn.median() / 1e3,
              syn.p90() / 1e3, syn.size() + 1);

  const auto conc = analysis::concurrent_racks(result.trace, self, resolver);
  const auto conns = analysis::concurrent_connections(result.trace, self);
  std::printf("per 5ms: racks med %.0f p90 %.0f | tuples med %.0f | hosts med %.0f\n",
              conc.all.median(), conc.all.p90(), conns.tuples.median(), conns.hosts.median());

  const auto hh_racks = analysis::concurrent_heavy_hitter_racks(result.trace, self, resolver);
  std::printf("HH racks per 5ms: med %.0f p90 %.0f\n", hh_racks.all.median(),
              hh_racks.all.p90());

  // Heavy-hitter persistence at rack level, 100-ms bins.
  const auto binned =
      analysis::bin_outbound(result.trace, self, resolver, analysis::AggLevel::kRack,
                             core::Duration::millis(100), result.capture_start,
                             result.capture_end - result.capture_start);
  const auto persist = analysis::hh_persistence(binned);
  core::Cdf pcdf;
  pcdf.add_all(persist);
  std::printf("rack-HH persistence @100ms: med %.0f%%\n", pcdf.median());

  std::printf("on/off idle-bin fraction @15ms: %.3f\n",
              analysis::idle_bin_fraction(result.trace, core::Duration::millis(15)));

  std::printf("\n");
  telemetry::print_summary(stdout, telemetry::MetricsRegistry::global().snapshot());
  return 0;
}
