// Figure 14: flow (SYN packet) inter-arrival per host type. Web servers and
// Hadoop nodes start >500 flows/s (median interarrival ~2 ms); cache nodes
// are slower (leaders ~3 ms, followers ~8 ms) thanks to connection pooling.
#include <cstdio>

#include "fbdcsim/analysis/packet_stats.h"
#include "paper.h"

namespace fbdcsim::paper {

void fig14_syn_interarrival(const PaperTraces& traces, Anchors& anchors) {
  const NamedTrace kRoles[] = {
      {"Web Server", &traces.web},
      {"Hadoop", &traces.hadoop},
      {"Cache Leader", &traces.cache_leader},
      {"Cache Follower", &traces.cache_follower},
  };

  std::vector<core::Cdf> cdfs;
  std::vector<std::string> names;
  for (const auto& r : kRoles) {
    cdfs.push_back(analysis::syn_interarrival_cdf(r.trace->result.trace, r.trace->self));
    names.emplace_back(r.name);
  }
  std::vector<const core::Cdf*> ptrs;
  for (const auto& c : cdfs) ptrs.push_back(&c);
  bench::print_cdf_table("\nSYN inter-arrival (us)", names, ptrs, 1.0, "us");

  std::printf("\nmedians (ms): ");
  for (std::size_t i = 0; i < cdfs.size(); ++i) {
    std::printf("%s %.2f  ", names[i].c_str(), cdfs[i].median() / 1e3);
  }
  std::printf(
      "\n\nPaper Figure 14: medians ~2 ms for Web and Hadoop (>500 flows/s),\n"
      "~3 ms for cache leaders, ~8 ms for cache followers.\n");
  check(anchors, "6.2", "Web SYN interarrival median ~2 ms", 0.5, 5.0,
        cdfs[0].median() / 1000.0);
  check(anchors, "6.2", "Cache follower SYN interarrival median ~8 ms", 3.0, 16.0,
        cdfs[3].median() / 1000.0);
}

}  // namespace fbdcsim::paper
