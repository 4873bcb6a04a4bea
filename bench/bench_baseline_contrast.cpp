// Table 1 contrast: run the same analyses over (a) the Facebook-style
// traces this library synthesizes and (b) the prior-literature baseline
// workload (rack-local, ON/OFF, bimodal packets, <5 concurrent
// destinations). Every row is one of Table 1's "finding vs previously
// published data" comparisons, made concrete.
#include <cstdio>
#include <span>

#include "common.h"
#include "fbdcsim/analysis/concurrency.h"
#include "fbdcsim/analysis/heavy_hitters.h"
#include "fbdcsim/analysis/locality.h"
#include "fbdcsim/analysis/packet_stats.h"
#include "fbdcsim/workload/baseline.h"

using namespace fbdcsim;

namespace {

struct Metrics {
  double rack_local_pct{0};
  double median_packet{0};
  double concurrent_tuples_p50{0};
  double idle15_pct{0};
};

Metrics analyze(std::span<const core::PacketHeader> trace, core::Ipv4Addr self,
                const analysis::AddrResolver& resolver) {
  Metrics m;
  m.rack_local_pct =
      analysis::locality_shares(trace, self, resolver)[static_cast<int>(
          core::Locality::kIntraRack)];
  m.median_packet = analysis::packet_size_cdf(trace).median();
  m.concurrent_tuples_p50 = analysis::concurrent_connections(trace, self).tuples.median();
  m.idle15_pct = analysis::idle_bin_fraction(trace, core::Duration::millis(15)) * 100.0;
  return m;
}

}  // namespace

int main() {
  bench::BenchReport report{"baseline_contrast"};
  bench::banner("Table 1 contrast: Facebook-style workload vs prior literature",
                "Table 1, Sections 4-6");
  bench::BenchEnv env;

  // Facebook-style: a cache follower (the paper's most contrarian host).
  const bench::RoleTrace fb = env.capture(core::HostRole::kCacheFollower, 8);
  const Metrics fb_m = analyze(fb.result.trace, fb.self, env.resolver());

  // Literature baseline on the same monitored host.
  workload::LiteratureWorkloadConfig lit_cfg;
  const auto lit_trace = workload::generate_literature_trace(
      env.fleet(), fb.host, core::Duration::seconds(8), lit_cfg);
  const Metrics lit_m = analyze(lit_trace, fb.self, env.resolver());

  std::printf("\n%-38s  %14s  %14s  %s\n", "metric", "this-workload", "literature",
              "paper's contrast");
  std::printf("%-38s  %13.1f%%  %13.1f%%  %s\n", "rack-local bytes", fb_m.rack_local_pct,
              lit_m.rack_local_pct, "not rack-local vs 50-80% rack-local");
  std::printf("%-38s  %13.0fB  %13.0fB  %s\n", "median packet size", fb_m.median_packet,
              lit_m.median_packet, "<200 B vs bimodal ACK/MTU");
  std::printf("%-38s  %14.0f  %14.0f  %s\n", "concurrent 5-tuples per 5 ms",
              fb_m.concurrent_tuples_p50, lit_m.concurrent_tuples_p50,
              "100s-1000s vs <5 large flows");
  std::printf("%-38s  %13.1f%%  %13.1f%%  %s\n", "idle 15-ms bins (ON/OFF-ness)",
              fb_m.idle15_pct, lit_m.idle15_pct, "continuous vs ON/OFF arrivals");
  return 0;
}
