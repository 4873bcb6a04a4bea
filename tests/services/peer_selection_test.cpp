#include "fbdcsim/services/peer_selection.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "fbdcsim/topology/standard_fleet.h"
#include "fbdcsim/workload/fleet_flows.h"

namespace fbdcsim::services {
namespace {

topology::Fleet test_fleet() {
  topology::StandardFleetConfig cfg;
  cfg.sites = 2;
  cfg.datacenters_per_site = 1;
  cfg.frontend_clusters = 2;
  cfg.cache_clusters = 1;
  cfg.hadoop_clusters = 1;
  cfg.database_clusters = 1;
  cfg.service_clusters = 1;
  cfg.racks_per_cluster = 8;
  cfg.hosts_per_rack = 4;
  cfg.frontend_web_racks = 5;
  cfg.frontend_cache_racks = 2;
  cfg.frontend_multifeed_racks = 1;
  return topology::build_standard_fleet(cfg);
}

class PeerSelectionScopeTest : public ::testing::TestWithParam<Scope> {};

TEST_P(PeerSelectionScopeTest, AllCandidatesSatisfyScope) {
  const topology::Fleet fleet = test_fleet();
  const core::HostId self = fleet.hosts().front().id;  // a Web host
  PeerSelector sel{fleet, self};
  const topology::Host& s = fleet.host(self);

  const Scope scope = GetParam();
  for (const core::HostRole role :
       {core::HostRole::kWeb, core::HostRole::kCacheFollower, core::HostRole::kService}) {
    for (const core::HostId cand : sel.candidates(role, scope)) {
      const topology::Host& c = fleet.host(cand);
      EXPECT_NE(cand, self);
      EXPECT_EQ(c.role, role);
      switch (scope) {
        case Scope::kSameRack: EXPECT_EQ(c.rack, s.rack); break;
        case Scope::kSameCluster: EXPECT_EQ(c.cluster, s.cluster); break;
        case Scope::kSameClusterOtherRack:
          EXPECT_EQ(c.cluster, s.cluster);
          EXPECT_NE(c.rack, s.rack);
          break;
        case Scope::kSameDatacenterOtherCluster:
          EXPECT_EQ(c.datacenter, s.datacenter);
          EXPECT_NE(c.cluster, s.cluster);
          break;
        case Scope::kSameDatacenter: EXPECT_EQ(c.datacenter, s.datacenter); break;
        case Scope::kOtherDatacenters: EXPECT_NE(c.datacenter, s.datacenter); break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllScopes, PeerSelectionScopeTest,
                         ::testing::Values(Scope::kSameRack, Scope::kSameCluster,
                                           Scope::kSameClusterOtherRack,
                                           Scope::kSameDatacenterOtherCluster,
                                           Scope::kSameDatacenter,
                                           Scope::kOtherDatacenters));

TEST(PeerSelectionTest, ScopesPartitionByConstruction) {
  // SameCluster == SameRack + SameClusterOtherRack (as candidate sets).
  const topology::Fleet fleet = test_fleet();
  const core::HostId self = fleet.hosts().front().id;
  PeerSelector sel{fleet, self};
  const auto whole = sel.candidates(core::HostRole::kWeb, Scope::kSameCluster);
  const auto rack = sel.candidates(core::HostRole::kWeb, Scope::kSameRack);
  const auto other = sel.candidates(core::HostRole::kWeb, Scope::kSameClusterOtherRack);
  EXPECT_EQ(whole.size(), rack.size() + other.size());
}

TEST(PeerSelectionTest, FleetTierPicksStayInPeerSelectorScope) {
  // The fleet tier (workload::RoleIndex) and the rack tier (PeerSelector)
  // must agree on what every Scope means: a fleet flow's destination is
  // always one the rack models could have chosen.
  const topology::Fleet fleet = topology::build_standard_fleet();
  const workload::RoleIndex index{fleet};
  const std::array<core::HostRole, 8> roles{
      core::HostRole::kWeb,       core::HostRole::kCacheFollower, core::HostRole::kCacheLeader,
      core::HostRole::kHadoop,    core::HostRole::kMultifeed,     core::HostRole::kSlb,
      core::HostRole::kDatabase,  core::HostRole::kService};
  const std::array<Scope, 6> scopes{Scope::kSameRack,
                                    Scope::kSameCluster,
                                    Scope::kSameClusterOtherRack,
                                    Scope::kSameDatacenterOtherCluster,
                                    Scope::kSameDatacenter,
                                    Scope::kOtherDatacenters};
  core::RngStream rng{23};
  for (const core::HostRole self_role : roles) {
    const auto hosts = fleet.hosts_with_role(self_role);
    if (hosts.empty()) continue;  // the default rack mix leaves no SLB racks
    const core::HostId self = hosts.front();
    PeerSelector sel{fleet, self};
    for (const Scope scope : scopes) {
      int picked = 0;
      for (const core::HostRole role : roles) {
        const auto candidates = sel.candidates(role, scope);
        const std::set<core::HostId> allowed(candidates.begin(), candidates.end());
        for (int i = 0; i < 32; ++i) {
          const core::HostId pick = index.pick(self, role, scope, rng);
          if (!pick.is_valid()) continue;
          ++picked;
          EXPECT_TRUE(allowed.contains(pick))
              << to_string(scope) << ": " << core::to_string(role) << " host " << pick.value()
              << " picked for " << core::to_string(self_role) << " host " << self.value();
        }
      }
      EXPECT_GT(picked, 0) << to_string(scope) << " from " << core::to_string(self_role);
    }
  }
}

TEST(PeerSelectionTest, PickIsRoughlyUniform) {
  const topology::Fleet fleet = test_fleet();
  const core::HostId self = fleet.hosts().front().id;
  PeerSelector sel{fleet, self};
  core::RngStream rng{17};

  std::map<core::HostId, int> counts;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const auto peer = sel.pick(core::HostRole::kCacheFollower, Scope::kSameCluster, rng);
    ASSERT_TRUE(peer.has_value());
    ++counts[*peer];
  }
  const auto candidates = sel.candidates(core::HostRole::kCacheFollower, Scope::kSameCluster);
  EXPECT_EQ(counts.size(), candidates.size());
  const double expected = static_cast<double>(n) / static_cast<double>(candidates.size());
  for (const auto& [host, count] : counts) {
    EXPECT_NEAR(count, expected, expected * 0.3);
  }
}

TEST(PeerSelectionTest, PickEmptyScopeIsNull) {
  const topology::Fleet fleet = test_fleet();
  const core::HostId self = fleet.hosts().front().id;
  PeerSelector sel{fleet, self};
  core::RngStream rng{17};
  // No Hadoop hosts inside a Frontend cluster.
  EXPECT_FALSE(sel.pick(core::HostRole::kHadoop, Scope::kSameCluster, rng).has_value());
}

TEST(PeerSelectionTest, SkewedPickConcentrates) {
  const topology::Fleet fleet = test_fleet();
  const core::HostId self = fleet.hosts().front().id;
  PeerSelector sel{fleet, self};
  core::RngStream rng{21};

  std::map<core::HostId, int> counts;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const auto peer =
        sel.pick_skewed(core::HostRole::kCacheFollower, Scope::kSameCluster, rng, 1.2);
    ASSERT_TRUE(peer.has_value());
    ++counts[*peer];
  }
  // The most popular candidate should dominate the least popular by a lot.
  int max_count = 0;
  int min_count = n;
  for (const auto& [host, count] : counts) {
    max_count = std::max(max_count, count);
    min_count = std::min(min_count, count);
  }
  EXPECT_GT(max_count, 10 * std::max(1, min_count));
}

TEST(PeerSelectionTest, SkewRotationChangesHotSet) {
  const topology::Fleet fleet = test_fleet();
  const core::HostId self = fleet.hosts().front().id;
  PeerSelector sel{fleet, self};

  auto hottest = [&](std::uint64_t rotation) {
    core::RngStream rng{31};
    std::map<core::HostId, int> counts;
    for (int i = 0; i < 5'000; ++i) {
      const auto peer = sel.pick_skewed(core::HostRole::kCacheFollower, Scope::kSameCluster,
                                        rng, 1.2, rotation);
      ++counts[*peer];
    }
    core::HostId best;
    int best_count = -1;
    for (const auto& [host, count] : counts) {
      if (count > best_count) {
        best = host;
        best_count = count;
      }
    }
    return best;
  };
  EXPECT_NE(hottest(0), hottest(1));
}

}  // namespace
}  // namespace fbdcsim::services
