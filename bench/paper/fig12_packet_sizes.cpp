// Figure 12: packet size distribution per host type. Hadoop is bimodal
// (ACK or MTU); every other service has a small median (<200 B) despite
// 10-Gbps links — so packet *rates* stay high even at low utilization
// (Section 6.1).
#include <cstdio>

#include "fbdcsim/analysis/packet_stats.h"
#include "paper.h"

namespace fbdcsim::paper {

void fig12_packet_sizes(const PaperTraces& traces, Anchors& anchors) {
  const NamedTrace kRoles[] = {
      {"Web Server", &traces.web},
      {"Hadoop", &traces.hadoop},
      {"Cache Leader", &traces.cache_leader},
      {"Cache Follower", &traces.cache_follower},
  };

  std::vector<core::Cdf> cdfs;
  std::vector<std::string> names;
  for (const auto& r : kRoles) {
    cdfs.push_back(analysis::packet_size_cdf(r.trace->result.trace));
    names.emplace_back(r.name);
  }
  std::vector<const core::Cdf*> ptrs;
  for (const auto& c : cdfs) ptrs.push_back(&c);
  bench::print_cdf_table("\non-wire frame bytes", names, ptrs, 1.0, "B");

  std::printf("\nmedians: ");
  for (std::size_t i = 0; i < cdfs.size(); ++i) {
    std::printf("%s %.0fB  ", names[i].c_str(), cdfs[i].median());
  }
  // The packet-rate observation of §6.1: a cache server at 10% utilization
  // with ~175 B median packets generates ~85% of the packet rate of a fully
  // utilized link with MTU packets.
  const double cache_median = cdfs[3].median();
  std::printf("\npacket-rate amplification at cache median size: %.0f%% of MTU pps at 10%% util\n",
              0.10 * 1514.0 / cache_median * 100.0);
  std::printf(
      "\nPaper Figure 12 shape: Hadoop bimodal at ACK/MTU; all other services\n"
      "median <200 B with only 5-10%% of packets at full MTU.\n");

  const core::Cdf& hadoop = cdfs[1];
  check(anchors, "6.1", "Web median packet < 200 B", 0, 230, cdfs[0].median());
  check(anchors, "6.1", "Cache median packet < 200 B", 0, 230, cache_median);
  check(anchors, "6.1", "Hadoop bimodal: ACK + MTU modes cover most packets", 70, 100,
        (hadoop.fraction_at_or_below(64.0) + 1.0 - hadoop.fraction_at_or_below(1500.0)) *
            100.0);
}

}  // namespace fbdcsim::paper
