// Topology-derived RTT laws (topology/path_delay.h): the closed-form hop
// count must agree with the real Router on a built 4-post Network, the
// delay must be linear in the per-hop latency, and the defaults must
// reproduce the legacy locality-class constants where the tables say they
// coincide (intra-cluster and inter-site).
#include "fbdcsim/topology/path_delay.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <utility>

#include "fbdcsim/topology/network.h"
#include "fbdcsim/topology/standard_fleet.h"
#include "fbdcsim/transport/params.h"

namespace fbdcsim::topology {
namespace {

/// Two sites x two datacenters each, so every locality class of the hop
/// table exists — including inter-DC-same-site, which the four-value
/// core::Locality enum cannot distinguish from inter-site.
Fleet five_class_fleet() {
  StandardFleetConfig cfg;
  cfg.sites = 2;
  cfg.datacenters_per_site = 2;
  cfg.frontend_clusters = 1;
  cfg.cache_clusters = 1;
  cfg.hadoop_clusters = 1;
  cfg.database_clusters = 0;
  cfg.service_clusters = 1;
  cfg.racks_per_cluster = 4;
  cfg.hosts_per_rack = 4;
  cfg.frontend_web_racks = 2;
  cfg.frontend_cache_racks = 1;
  cfg.frontend_multifeed_racks = 1;
  return build_standard_fleet(cfg);
}

using HostPair = std::pair<core::HostId, core::HostId>;

std::optional<HostPair> find_pair(const Fleet& f,
                                  const std::function<bool(const Host&, const Host&)>& want) {
  for (const Host& a : f.hosts()) {
    for (const Host& b : f.hosts()) {
      if (a.id != b.id && want(a, b)) return HostPair{a.id, b.id};
    }
  }
  return std::nullopt;
}

struct LocalityCase {
  const char* name;
  int expect_hops;
  std::function<bool(const Host&, const Host&)> want;
};

const LocalityCase kCases[] = {
    {"intra-rack", 0, [](const Host& a, const Host& b) { return a.rack == b.rack; }},
    {"intra-cluster", 2,
     [](const Host& a, const Host& b) { return a.rack != b.rack && a.cluster == b.cluster; }},
    {"intra-datacenter", 4,
     [](const Host& a, const Host& b) {
       return a.cluster != b.cluster && a.datacenter == b.datacenter;
     }},
    {"inter-dc-same-site", 4,
     [](const Host& a, const Host& b) {
       return a.datacenter != b.datacenter && a.site == b.site;
     }},
    {"inter-site", 5, [](const Host& a, const Host& b) { return a.site != b.site; }},
};

TEST(PathDelay, HopsMatchRouterRouteLinkCount) {
  // The closed form versus the real router: a route is
  //   host -> RSW, <hops beyond-RSW links>, RSW' -> host
  // so hops_beyond_rsw must equal route().size() - 2 — for every locality
  // class and regardless of which equal-cost path ECMP hashes onto.
  const Fleet f = five_class_fleet();
  const Network net = FourPostBuilder{}.build(f);
  const Router router{f, net};
  for (const LocalityCase& c : kCases) {
    const auto pair = find_pair(f, c.want);
    ASSERT_TRUE(pair.has_value()) << c.name << ": no such host pair in the fleet";
    const auto [src, dst] = *pair;
    EXPECT_EQ(hops_beyond_rsw(f, src, dst), c.expect_hops) << c.name;
    for (core::Port sport = 40'000; sport < 40'008; ++sport) {
      const core::FiveTuple tuple{f.host(src).addr, f.host(dst).addr, sport, 80,
                                  core::Protocol::kTcp};
      const auto path = router.route(src, dst, tuple);
      ASSERT_GE(path.size(), 2u) << c.name;
      EXPECT_EQ(hops_beyond_rsw(f, src, dst), static_cast<int>(path.size()) - 2)
          << c.name << " sport=" << sport;
    }
  }
}

TEST(PathDelay, DelayIsLinearInPerHopPlusInterSiteExtra) {
  const Fleet f = five_class_fleet();
  for (const LocalityCase& c : kCases) {
    const auto pair = find_pair(f, c.want);
    ASSERT_TRUE(pair.has_value()) << c.name;
    const auto [src, dst] = *pair;
    for (const std::int64_t per_hop_ns : {0LL, 1LL, 12'500LL, 1'000'000LL}) {
      const core::Duration extra = core::Duration::micros(300);
      const core::Duration got = one_way_beyond_rsw(
          f, src, dst, core::Duration::nanos(per_hop_ns), extra);
      std::int64_t want_ns = c.expect_hops * per_hop_ns;
      if (f.host(src).site != f.host(dst).site) want_ns += extra.count_nanos();
      EXPECT_EQ(got.count_nanos(), want_ns) << c.name << " per_hop=" << per_hop_ns;
    }
  }
}

TEST(PathDelay, DefaultsReproduceLegacyConstantsWhereTheTablesCoincide) {
  // The default per-hop / inter-site values are chosen so the topology mode
  // agrees with the legacy locality-class constants at the two anchor
  // points: the 2-hop intra-cluster path (2 x 12.5 us = 25 us) and the
  // 5-hop inter-site path (5 x 12.5 us + 17'437.5 us = 17'500 us). The
  // 4-hop intra-DC path deliberately diverges (50 us vs the legacy 75 us).
  const Fleet f = five_class_fleet();
  const transport::TcpParams p;
  auto one_way = [&](const LocalityCase& c) {
    const auto pair = find_pair(f, c.want);
    EXPECT_TRUE(pair.has_value()) << c.name;
    return one_way_beyond_rsw(f, pair->first, pair->second, transport::kPerHopOneWay,
                              transport::kInterSiteOneWay);
  };
  EXPECT_EQ(one_way(kCases[0]).count_nanos(), 0);
  EXPECT_EQ(one_way(kCases[1]).count_nanos(), transport::kClusterOneWay.count_nanos());
  EXPECT_EQ(one_way(kCases[4]).count_nanos(), transport::kInterdcOneWay.count_nanos());
  EXPECT_EQ(one_way(kCases[2]).count_nanos(), 50'000);
  EXPECT_EQ(one_way(kCases[3]).count_nanos(), 50'000);
}

TEST(PathDelay, DegenerateSingleRackFleetIsAlwaysZeroHops) {
  // A one-rack fleet has no beyond-RSW fabric at all: every pair (and the
  // self-pair) must be 0 hops with zero delay, whatever the constants.
  const Fleet f = build_single_cluster_fleet(ClusterType::kHadoop, 1, 4);
  for (const Host& a : f.hosts()) {
    for (const Host& b : f.hosts()) {
      EXPECT_EQ(hops_beyond_rsw(f, a.id, b.id), 0);
      EXPECT_EQ(one_way_beyond_rsw(f, a.id, b.id, core::Duration::millis(1),
                                   core::Duration::millis(100))
                    .count_nanos(),
                0);
    }
  }
}

TEST(PathDelay, SingleClusterFleetNeverLeavesTheClusterFabric) {
  const Fleet f = build_single_cluster_fleet(ClusterType::kFrontend, 8, 2);
  for (const Host& a : f.hosts()) {
    for (const Host& b : f.hosts()) {
      const int hops = hops_beyond_rsw(f, a.id, b.id);
      EXPECT_EQ(hops, a.rack == b.rack ? 0 : 2);
    }
  }
}

}  // namespace
}  // namespace fbdcsim::topology
