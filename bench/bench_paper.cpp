// The paper run: captures each monitored role once — Web, cache follower,
// cache leader and Hadoop, concurrently on the shared pool — and derives
// every rack-trace table and figure (Tables 1, 2 and 4, Figures 4, 6-14 and
// 16-17, the §5.1 and §5.4 text numbers) from those four traces, the way
// the paper derives them from one set of port-mirror captures per host type.
//
// Each figure prints its table and appends the anchors — the paper's
// quantitative prose claims, with accepted bands — whose quantity it
// prints; claims no figure prints are measured by the closing scorecard
// entry. The run ends with the anchor table. Exit code is the number of
// failed anchors, so CI can gate on it. Figure bodies live in bench/paper/.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fbdcsim/analysis/locality.h"
#include "paper/paper.h"

using namespace fbdcsim;

namespace {

/// Claims with no figure of their own: §4.2's locality shares and the cache
/// follower's dispersion over its cluster's Web tier.
void scorecard(const paper::PaperTraces& traces, paper::Anchors& anchors) {
  const auto& resolver = traces.resolver();
  const auto& fleet = traces.fleet();
  const bench::RoleTrace& web = traces.web;
  const bench::RoleTrace& hadoop = traces.hadoop;
  const bench::RoleTrace& cache_l = traces.cache_leader;

  const auto wl = analysis::locality_shares(web.result.trace, web.self, resolver);
  check(anchors, "4.2", "Web traffic mostly intra-cluster (~68-86%)", 55, 95, wl[1]);
  check(anchors, "4.2", "Web rack-local traffic minimal", 0, 8, wl[0]);
  const auto hl = analysis::locality_shares(hadoop.result.trace, hadoop.self, resolver);
  check(anchors, "4.2", "Busy Hadoop node ~75.7% rack-local", 50, 90, hl[0]);
  check(anchors, "4.2", "Hadoop stays in cluster (99.8%)", 97, 100, hl[0] + hl[1]);
  const auto cl = analysis::locality_shares(cache_l.result.trace, cache_l.self, resolver);
  check(anchors, "4.2", "Cache leader mostly DC + inter-DC", 60, 100, cl[2] + cl[3]);

  const bench::RoleTrace& cache_f = traces.cache_follower;
  std::set<std::uint32_t> web_peers;
  const auto cluster = fleet.host(cache_f.host).cluster;
  for (const auto& pkt : cache_f.result.trace) {
    if (pkt.tuple.src_ip != cache_f.self) continue;
    const auto host = resolver.host_of(pkt.tuple.dst_ip);
    if (host.is_valid() && fleet.host(host).role == core::HostRole::kWeb &&
        fleet.host(host).cluster == cluster) {
      web_peers.insert(host.value());
    }
  }
  const auto total_web = fleet.hosts_with_role_in_cluster(core::HostRole::kWeb, cluster).size();
  check(anchors, "4.2", "Cache follower reaches >90% of cluster's Web servers", 90, 100,
        100.0 * static_cast<double>(web_peers.size()) / static_cast<double>(total_web));
}

/// Every table and figure, in print order, under its heading.
constexpr std::pair<const char*, paper::Figure> kFigures[] = {
    {"Table 1 contrast: Facebook-style workload vs prior literature",
     &paper::table1_baseline_contrast},
    {"Table 2: outbound traffic percentage by destination service",
     &paper::table2_service_breakdown},
    {"Table 4: heavy hitters in 1-ms intervals", &paper::table4_heavy_hitters},
    {"Figure 4: per-second traffic locality by system type", &paper::fig4_locality_timeseries},
    {"Figure 6: flow size distribution by destination locality", &paper::fig6_flow_sizes},
    {"Figure 7: flow duration distribution by destination locality",
     &paper::fig7_flow_durations},
    {"Figure 8: per-destination-rack flow rates and stability", &paper::fig8_rate_stability},
    {"Figure 9: cache follower per-destination-host flow size", &paper::fig9_cache_host_flows},
    {"Figure 10: heavy-hitter persistence across intervals", &paper::fig10_hh_stability},
    {"Figure 11: heavy hitters of subintervals vs enclosing second",
     &paper::fig11_hh_intersection},
    {"Figure 12: packet size distribution by host type", &paper::fig12_packet_sizes},
    {"Figure 13: Hadoop packet arrivals are not ON/OFF", &paper::fig13_arrival_pattern},
    {"Figure 14: flow (SYN) inter-arrival by host type", &paper::fig14_syn_interarrival},
    {"Figure 16: concurrent (5-ms) rack-level flows", &paper::fig16_concurrent_racks},
    {"Figure 17: concurrent (5-ms) heavy-hitter racks", &paper::fig17_concurrent_hh_racks},
    {"Section 5.1: intra-flow burstiness", &paper::sec51_burstiness},
    {"Section 5.4: reactive heavy-hitter TE effectiveness", &paper::sec54_te_effectiveness},
    {"Anchor scorecard: the paper's prose claims, checked automatically", &scorecard},
};

/// Captures the four roles (each config adjusted by `tweak`) on the pool.
paper::PaperTraces capture(bench::BenchEnv& env, const bench::BenchEnv::Tweak& tweak = {}) {
  // One default length per role: the longest window any of its figures
  // needs (Figure 8's 30-s rate series for cache followers and Hadoop,
  // Figures 6-7's 15 s for Web, Table 4's 10 s for cache leaders).
  auto traces = env.capture_all({{core::HostRole::kWeb, 15, tweak},
                                 {core::HostRole::kCacheFollower, 30, tweak},
                                 {core::HostRole::kCacheLeader, 10, tweak},
                                 {core::HostRole::kHadoop, 30, tweak}});
  return paper::PaperTraces{env, std::move(traces[0]), std::move(traces[1]),
                            std::move(traces[2]), std::move(traces[3])};
}

/// Runs every figure over `traces` and returns their anchors, in table
/// order. With `print` false the figures' tables go to /dev/null.
paper::Anchors run_figures(const paper::PaperTraces& traces, bool print) {
  std::fflush(stdout);
  const int saved_stdout = print ? -1 : ::dup(STDOUT_FILENO);
  if (saved_stdout >= 0) {
    if (const int null_fd = ::open("/dev/null", O_WRONLY); null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::close(null_fd);
    }
  }
  paper::Anchors anchors;
  for (const auto& [heading, figure] : kFigures) {
    std::printf("\n=== %s ===\n", heading);
    figure(traces, anchors);
  }
  std::fflush(stdout);
  if (saved_stdout >= 0) {
    ::dup2(saved_stdout, STDOUT_FILENO);
    ::close(saved_stdout);
  }
  return anchors;
}

}  // namespace

int main() {
  bench::BenchReport report{"paper"};
  bench::banner("The paper: every rack-trace table, figure and prose claim",
                "Tables 1, 2 and 4, Figures 4, 6-14 and 16-17, Sections 3-6");
  bench::BenchEnv env;
  std::string headings;
  for (const auto& [heading, figure] : kFigures) {
    headings += std::string{headings.empty() ? "" : "|"} + heading;
  }
  report.add_extra("figures", headings);

  const paper::Anchors anchors = run_figures(capture(env), true);

  // Faulted column: with FBDCSIM_FAULTS on, re-capture the same roles under
  // the fault plan (after the baseline traces are gone, so peak memory does
  // not double) and rerun the figures for their anchors only. The pass/fail
  // gate stays on the baseline anchors — the faulted column quantifies how
  // far realistic fabric and collection faults move each claim, it is not a
  // correctness gate.
  paper::Anchors faulted;
  if (const faults::FaultPlan* plan = env.fault_plan()) {
    faulted = run_figures(
        capture(env, [plan](workload::RackSimConfig& cfg) { cfg.faults = plan; }), false);
  }

  // ----- report -----
  int failed = 0;
  const bool have_faulted = !faulted.empty();
  std::printf("\n%-5s %-62s %12s", "sec", "claim", "measured");
  if (have_faulted) std::printf(" %12s", "faulted");
  std::printf(" %18s\n", "accepted band");
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    const paper::Anchor& a = anchors[i];
    if (!a.pass()) ++failed;
    std::printf("%-5s %-62s %12.2f", a.section.c_str(), a.claim.c_str(), a.measured);
    if (have_faulted) {
      if (i < faulted.size()) {
        std::printf(" %12.2f", faulted[i].measured);
      } else {
        std::printf(" %12s", "-");
      }
    }
    std::printf(" %8.4g-%-8.4g %s\n", a.lo, a.hi, a.pass() ? "PASS" : "FAIL");
  }
  std::printf("\n%zu anchors, %d failed\n", anchors.size(), failed);
  report.set_status(failed);
  return failed;
}
