// Table 2: breakdown of outbound traffic percentages for four host types
// (Web, cache leader, cache follower, Hadoop), classified by the role of
// the destination host — extracted from port-mirror packet traces exactly
// as the paper does (Section 3.2).
#include <cstdio>

#include "fbdcsim/analysis/locality.h"
#include "paper.h"

namespace fbdcsim::paper {

void table2_service_breakdown(const PaperTraces& traces, Anchors& anchors) {
  const NamedTrace rows[] = {
      {"Web", &traces.web},
      {"Cache-l", &traces.cache_leader},
      {"Cache-f", &traces.cache_follower},
      {"Hadoop", &traces.hadoop},
  };

  std::printf("\n%-8s", "Type");
  const core::HostRole columns[] = {
      core::HostRole::kWeb,    core::HostRole::kCacheFollower, core::HostRole::kCacheLeader,
      core::HostRole::kMultifeed, core::HostRole::kSlb,        core::HostRole::kHadoop,
      core::HostRole::kDatabase,  core::HostRole::kService};
  for (const auto col : columns) std::printf("  %9s", core::to_string(col));
  std::printf("\n");

  for (const NamedTrace& row : rows) {
    const bench::RoleTrace& trace = *row.trace;
    const auto shares =
        analysis::outbound_role_shares(trace.result.trace, trace.self, traces.resolver());
    const auto share = [&shares](core::HostRole role) {
      double pct = 0.0;
      for (const auto& s : shares) {
        if (s.role == role) pct = s.percent;
      }
      return pct;
    };
    std::printf("%-8s", row.name);
    for (const auto col : columns) {
      if (const double pct = share(col); pct < 0.05) {
        std::printf("  %9s", "-");
      } else {
        std::printf("  %9.1f", pct);
      }
    }
    std::printf("\n");
    if (trace.role == core::HostRole::kWeb) {
      check(anchors, "T2", "Web outbound to cache ~63.1%", 48, 78,
            share(core::HostRole::kCacheFollower));
      check(anchors, "T2", "Web outbound to Multifeed ~15.2%", 8, 25,
            share(core::HostRole::kMultifeed));
    }
    if (trace.role == core::HostRole::kHadoop) {
      check(anchors, "T2", "Hadoop outbound to Hadoop ~99.8%", 98, 100,
            share(core::HostRole::kHadoop));
    }
  }

  std::printf(
      "\nPaper Table 2 for comparison:\n"
      "Web      -> Cache 63.1, MF 15.2, SLB 5.6, Rest 16.1\n"
      "Cache-l  -> Cache 86.6, MF 5.9, Rest 7.5\n"
      "Cache-f  -> Web 88.7, Cache 5.8, Rest 5.5\n"
      "Hadoop   -> Hadoop 99.8, Rest 0.2\n");
}

}  // namespace fbdcsim::paper
