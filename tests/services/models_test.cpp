// Behavioural tests of the per-role traffic models: each model must emit
// traffic whose destination-service mix, locality, and packet features match
// the paper's characterization of that role (loose tolerances — these are
// distributional checks, not golden values). ModelStreamDigest is the one
// exact check: it pins every model's packet streams to committed digests.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string_view>

#include "fbdcsim/services/backend.h"
#include "fbdcsim/services/cache.h"
#include "fbdcsim/services/hadoop.h"
#include "fbdcsim/services/web.h"
#include "fbdcsim/topology/standard_fleet.h"
#include "../support/rack_fingerprint.h"

namespace fbdcsim::services {
namespace {

using core::Duration;
using core::HostRole;
using core::Locality;

topology::Fleet medium_fleet() {
  topology::StandardFleetConfig cfg;
  cfg.sites = 2;
  cfg.datacenters_per_site = 1;
  cfg.frontend_clusters = 2;
  cfg.cache_clusters = 1;
  cfg.hadoop_clusters = 1;
  cfg.database_clusters = 1;
  cfg.service_clusters = 1;
  cfg.racks_per_cluster = 16;
  cfg.hosts_per_rack = 4;
  cfg.frontend_web_racks = 11;  // leaves one SLB rack per Frontend cluster
  cfg.frontend_cache_racks = 3;
  cfg.frontend_multifeed_racks = 1;
  return topology::build_standard_fleet(cfg);
}

class CollectingSink : public TrafficSink {
 public:
  void host_send(const SimPacket& pkt) override { sent.push_back(pkt); }
  void host_receive(const SimPacket& pkt) override { received.push_back(pkt); }

  std::vector<SimPacket> sent;
  std::vector<SimPacket> received;
};

struct RunResult {
  std::vector<SimPacket> sent;
  std::vector<SimPacket> received;
  std::uint64_t executed_events{0};
  std::size_t pending_events{0};
};

RunResult run_model(const topology::Fleet& fleet, core::HostId host, const ServiceMix& mix,
                    Duration horizon, std::uint64_t seed = 5) {
  sim::Simulator sim;
  CollectingSink sink;
  auto model = make_model(fleet, host, mix, core::RngStream{seed});
  model->start(sim, sink);
  sim.run_until(core::TimePoint::zero() + horizon);
  return RunResult{std::move(sink.sent), std::move(sink.received), sim.executed_events(),
                   sim.pending_events()};
}

core::HostId first_host_of(const topology::Fleet& fleet, HostRole role) {
  for (const topology::Host& h : fleet.hosts()) {
    if (h.role == role) return h.id;
  }
  return core::HostId::invalid();
}

std::map<HostRole, double> role_shares(const topology::Fleet& fleet,
                                       const std::vector<SimPacket>& sent) {
  std::map<HostRole, double> bytes;
  double total = 0.0;
  for (const SimPacket& p : sent) {
    const auto b = static_cast<double>(p.header.payload_bytes);
    bytes[fleet.host(p.dst).role] += b;
    total += b;
  }
  if (total > 0) {
    for (auto& [role, b] : bytes) b = b / total * 100.0;
  }
  return bytes;
}

std::array<double, core::kNumLocalities> locality_shares(const topology::Fleet& fleet,
                                                         core::HostId self,
                                                         const std::vector<SimPacket>& sent) {
  std::array<double, core::kNumLocalities> bytes{};
  double total = 0.0;
  for (const SimPacket& p : sent) {
    const auto b = static_cast<double>(p.header.frame_bytes);
    bytes[static_cast<int>(fleet.locality(self, p.dst))] += b;
    total += b;
  }
  if (total > 0) {
    for (double& b : bytes) b = b / total * 100.0;
  }
  return bytes;
}

TEST(WebServerModelTest, DestinationMixMatchesTable2) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kWeb);
  const auto result = run_model(fleet, host, ServiceMix{}, Duration::seconds(3));
  ASSERT_GT(result.sent.size(), 1000u);

  const auto shares = role_shares(fleet, result.sent);
  // Table 2 Web row: cache 63.1, MF 15.2, SLB 5.6, rest 16.1.
  EXPECT_NEAR(shares.at(HostRole::kCacheFollower), 63.1, 10.0);
  EXPECT_NEAR(shares.at(HostRole::kMultifeed), 15.2, 8.0);
  EXPECT_NEAR(shares.at(HostRole::kSlb), 5.6, 5.0);
  EXPECT_NEAR(shares.at(HostRole::kService), 16.1, 8.0);
}

TEST(WebServerModelTest, TrafficIsClusterDominatedNotRackLocal) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kWeb);
  const auto result = run_model(fleet, host, ServiceMix{}, Duration::seconds(2));
  const auto loc = locality_shares(fleet, host, result.sent);
  EXPECT_LT(loc[static_cast<int>(Locality::kIntraRack)], 5.0);
  EXPECT_GT(loc[static_cast<int>(Locality::kIntraCluster)], 60.0);
  EXPECT_GT(loc[static_cast<int>(Locality::kInterDatacenter)], 1.0);
}

TEST(WebServerModelTest, EmitsEphemeralSyns) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kWeb);
  const auto result = run_model(fleet, host, ServiceMix{}, Duration::seconds(2));
  std::int64_t syns = 0;
  for (const SimPacket& p : result.sent) {
    if (p.header.flags.syn && !p.header.flags.ack) ++syns;
  }
  // ~500/s ephemeral rate.
  EXPECT_NEAR(static_cast<double>(syns), 1000.0, 400.0);
}

TEST(CacheFollowerModelTest, RespondsMostlyToWeb) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kCacheFollower);
  ServiceMix mix;
  mix.cache_follower.gets_served_per_sec = 10'000.0;  // keep the test fast
  const auto result = run_model(fleet, host, mix, Duration::seconds(2));
  const auto shares = role_shares(fleet, result.sent);
  EXPECT_GT(shares.at(HostRole::kWeb), 80.0);  // Table 2: 88.7
  EXPECT_LT(shares.at(HostRole::kWeb), 97.0);
}

TEST(CacheFollowerModelTest, SpreadsAcrossWebTier) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kCacheFollower);
  ServiceMix mix;
  mix.cache_follower.gets_served_per_sec = 20'000.0;
  const auto result = run_model(fleet, host, mix, Duration::seconds(2));
  std::set<std::uint32_t> dests;
  for (const SimPacket& p : result.sent) {
    if (fleet.host(p.dst).role == HostRole::kWeb) dests.insert(p.dst.value());
  }
  // >90% of the cluster's Web servers contacted (paper §4.2).
  const auto web_count =
      fleet.hosts_with_role_in_cluster(HostRole::kWeb, fleet.host(host).cluster).size();
  EXPECT_GT(dests.size(), web_count * 9 / 10);
}

TEST(CacheFollowerModelTest, MitigationClipsSurges) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kCacheFollower);
  ServiceMix mix;
  mix.cache_follower.gets_served_per_sec = 2'000.0;

  sim::Simulator sim;
  CollectingSink sink;
  CacheFollowerModel model{fleet, host, mix, core::RngStream{5}};
  model.start(sim, sink);
  sim.run_until(core::TimePoint::from_seconds(120.0));
  EXPECT_GT(model.surges_started(), 0);
  EXPECT_EQ(model.surges_mitigated(), model.surges_started());
}

TEST(CacheLeaderModelTest, TrafficReachesAcrossDatacenters) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kCacheLeader);
  ServiceMix mix;
  mix.cache_leader.coherency_msgs_per_sec = 5'000.0;
  mix.cache_leader.db_ops_per_sec = 200.0;
  const auto result = run_model(fleet, host, mix, Duration::seconds(2));
  const auto loc = locality_shares(fleet, host, result.sent);
  // Table 3 Cache row: ~0.2 rack / 13 cluster / 41 DC / 46 inter-DC.
  EXPECT_LT(loc[static_cast<int>(Locality::kIntraRack)], 5.0);
  EXPECT_LT(loc[static_cast<int>(Locality::kIntraCluster)], 30.0);
  EXPECT_GT(loc[static_cast<int>(Locality::kIntraDatacenter)], 25.0);
  EXPECT_GT(loc[static_cast<int>(Locality::kInterDatacenter)], 25.0);
}

TEST(CacheLeaderModelTest, MostBytesStayInCacheService) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kCacheLeader);
  ServiceMix mix;
  mix.cache_leader.coherency_msgs_per_sec = 5'000.0;
  mix.cache_leader.db_ops_per_sec = 150.0;
  const auto result = run_model(fleet, host, mix, Duration::seconds(2));
  const auto shares = role_shares(fleet, result.sent);
  double cache_total = 0.0;
  if (shares.contains(HostRole::kCacheFollower)) cache_total += shares.at(HostRole::kCacheFollower);
  if (shares.contains(HostRole::kCacheLeader)) cache_total += shares.at(HostRole::kCacheLeader);
  EXPECT_GT(cache_total, 70.0);  // Table 2: 86.6
}

TEST(HadoopModelTest, BytesStayInHadoopService) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kHadoop);
  ServiceMix mix;
  mix.hadoop.quiet_period_mean = Duration::seconds(1);
  mix.hadoop.busy_period_mean = Duration::seconds(2);
  const auto result = run_model(fleet, host, mix, Duration::seconds(5));
  const auto shares = role_shares(fleet, result.sent);
  EXPECT_GT(shares.at(HostRole::kHadoop), 99.0);  // Table 2: 99.8
}

TEST(HadoopModelTest, RackLocalityDominates) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kHadoop);
  ServiceMix mix;
  mix.hadoop.quiet_period_mean = Duration::seconds(1);
  mix.hadoop.busy_period_mean = Duration::seconds(2);
  const auto result = run_model(fleet, host, mix, Duration::seconds(5));
  const auto loc = locality_shares(fleet, host, result.sent);
  // Paper busy trace: 75.7% rack-local, remainder intra-cluster.
  EXPECT_GT(loc[static_cast<int>(Locality::kIntraRack)], 50.0);
  EXPECT_GT(loc[static_cast<int>(Locality::kIntraCluster)], 10.0);
  EXPECT_LT(loc[static_cast<int>(Locality::kIntraDatacenter)] +
                loc[static_cast<int>(Locality::kInterDatacenter)],
            2.0);
}

TEST(HadoopModelTest, PacketsAreBimodal) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kHadoop);
  ServiceMix mix;
  mix.hadoop.quiet_period_mean = Duration::seconds(1);
  mix.hadoop.busy_period_mean = Duration::seconds(2);
  const auto result = run_model(fleet, host, mix, Duration::seconds(5));
  std::int64_t mtu = 0, ack = 0, other = 0;
  for (const SimPacket& p : result.sent) {
    if (p.header.frame_bytes >= 1514) {
      ++mtu;
    } else if (p.header.frame_bytes <= 64) {
      ++ack;
    } else {
      ++other;
    }
  }
  // The two modes dominate (Figure 12's Hadoop curve).
  EXPECT_GT(mtu + ack, 8 * other);
}

TEST(HadoopModelTest, AlternatesPhases) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kHadoop);
  ServiceMix mix;
  mix.hadoop.quiet_period_mean = Duration::seconds(1);
  mix.hadoop.busy_period_mean = Duration::seconds(1);

  sim::Simulator sim;
  CollectingSink sink;
  HadoopModel model{fleet, host, mix, core::RngStream{5}};
  model.start(sim, sink);
  bool saw_busy = false, saw_quiet = false;
  for (int i = 0; i < 200; ++i) {
    sim.run_until(core::TimePoint::from_seconds(0.1 * (i + 1)));
    (model.busy() ? saw_busy : saw_quiet) = true;
  }
  EXPECT_TRUE(saw_busy);
  EXPECT_TRUE(saw_quiet);
}

TEST(HadoopModelTest, PartnerSetIsClusterSpread) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kHadoop);
  HadoopModel model{fleet, host, ServiceMix{}, core::RngStream{5}};
  std::set<std::uint32_t> partner_racks;
  for (const core::HostId p : model.partners()) {
    EXPECT_EQ(fleet.host(p).role, HostRole::kHadoop);
    EXPECT_NE(fleet.host(p).rack, fleet.host(host).rack);
    partner_racks.insert(fleet.host(p).rack.value());
  }
  EXPECT_GE(partner_racks.size(), 4u);
}

// Pins every model's packet streams bit for bit: each role under the
// default mix and the two ablations, digested over the sent and received
// headers (timestamp, tuple, sizes, flags) and the simulator's executed and
// pending event counts. Any change to a model's RNG draws, their order, or
// the events it schedules moves a digest. Unlike the rack goldens, this
// reaches the Multifeed, SLB, Database and Service models too. Regenerate
// the literals only for an intended change of model behaviour (the failure
// message prints the new value).
TEST(ModelStreamDigest, EveryRoleUnderDefaultAndAblationMixes) {
  struct Case {
    HostRole role;
    const char* variant;
    std::uint64_t digest;
  };
  static constexpr Case kCases[] = {
      {HostRole::kWeb, "default", 0x8817db2925b6856cULL},
      {HostRole::kWeb, "lb-off", 0xedb6c2a5aead7d3aULL},
      {HostRole::kWeb, "pooling-off", 0xe8f61df1db59f52aULL},
      {HostRole::kCacheFollower, "default", 0x22d2c624344070d1ULL},
      {HostRole::kCacheFollower, "lb-off", 0x1a330b0e26e5fab9ULL},
      {HostRole::kCacheFollower, "pooling-off", 0x22d2c624344070d1ULL},
      {HostRole::kCacheLeader, "default", 0xb7f6ba2a3d10cfa1ULL},
      {HostRole::kCacheLeader, "lb-off", 0xb7f6ba2a3d10cfa1ULL},
      {HostRole::kCacheLeader, "pooling-off", 0xb7f6ba2a3d10cfa1ULL},
      {HostRole::kHadoop, "default", 0xef22dc0424f8dd49ULL},
      {HostRole::kHadoop, "lb-off", 0xef22dc0424f8dd49ULL},
      {HostRole::kHadoop, "pooling-off", 0xef22dc0424f8dd49ULL},
      {HostRole::kMultifeed, "default", 0xe3e80ce40c15a17eULL},
      {HostRole::kMultifeed, "lb-off", 0x37be6ad8e8e514ccULL},
      {HostRole::kMultifeed, "pooling-off", 0xe3e80ce40c15a17eULL},
      {HostRole::kSlb, "default", 0xf0028df0f59338d7ULL},
      {HostRole::kSlb, "lb-off", 0xf483e5e9a96d8236ULL},
      {HostRole::kSlb, "pooling-off", 0xf0028df0f59338d7ULL},
      {HostRole::kDatabase, "default", 0x4251a68c3113da80ULL},
      {HostRole::kDatabase, "lb-off", 0x4251a68c3113da80ULL},
      {HostRole::kDatabase, "pooling-off", 0x4251a68c3113da80ULL},
      {HostRole::kService, "default", 0x8c70c301da979c27ULL},
      {HostRole::kService, "lb-off", 0x8c70c301da979c27ULL},
      {HostRole::kService, "pooling-off", 0x8c70c301da979c27ULL},
  };
  const topology::Fleet fleet = medium_fleet();
  for (const Case& c : kCases) {
    ServiceMix mix;
    if (std::string_view{c.variant} == "lb-off") mix.load_balancing_enabled = false;
    if (std::string_view{c.variant} == "pooling-off") mix.connection_pooling_enabled = false;
    const auto result =
        run_model(fleet, first_host_of(fleet, c.role), mix, Duration::seconds(2), 7);
    std::uint64_t h = 0;
    for (const SimPacket& p : result.sent) h = tests::mix_header(h, p.header);
    h = tests::mix64(h, result.sent.size());
    for (const SimPacket& p : result.received) h = tests::mix_header(h, p.header);
    h = tests::mix64(h, result.received.size());
    h = tests::mix64(h, result.executed_events);
    h = tests::mix64(h, result.pending_events);
    EXPECT_EQ(h, c.digest) << core::to_string(c.role) << " " << c.variant << " 0x" << std::hex
                           << h;
  }
}

class BackendModelTest : public ::testing::TestWithParam<HostRole> {};

TEST_P(BackendModelTest, EmitsTraffic) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, GetParam());
  ASSERT_TRUE(host.is_valid());
  const auto result = run_model(fleet, host, ServiceMix{}, Duration::seconds(2));
  EXPECT_GT(result.sent.size(), 10u);
  for (const SimPacket& p : result.sent) {
    EXPECT_EQ(p.src, host);
    EXPECT_NE(p.dst, host);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRoles, BackendModelTest,
                         ::testing::Values(HostRole::kWeb, HostRole::kCacheFollower,
                                           HostRole::kCacheLeader, HostRole::kHadoop,
                                           HostRole::kMultifeed, HostRole::kSlb,
                                           HostRole::kDatabase, HostRole::kService));

TEST(ModelDeterminismTest, SameSeedSameTrace) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kWeb);
  const auto a = run_model(fleet, host, ServiceMix{}, Duration::millis(500), 11);
  const auto b = run_model(fleet, host, ServiceMix{}, Duration::millis(500), 11);
  ASSERT_EQ(a.sent.size(), b.sent.size());
  for (std::size_t i = 0; i < a.sent.size(); ++i) {
    EXPECT_EQ(a.sent[i].header.timestamp, b.sent[i].header.timestamp);
    EXPECT_EQ(a.sent[i].header.tuple, b.sent[i].header.tuple);
  }
}

TEST(ModelDeterminismTest, DifferentSeedsDiffer) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kWeb);
  const auto a = run_model(fleet, host, ServiceMix{}, Duration::millis(300), 11);
  const auto b = run_model(fleet, host, ServiceMix{}, Duration::millis(300), 12);
  EXPECT_NE(a.sent.size(), b.sent.size());
}

TEST(ScaleRatesTest, LoadBalancingOffConcentrates) {
  const topology::Fleet fleet = medium_fleet();
  const core::HostId host = first_host_of(fleet, HostRole::kCacheFollower);
  ServiceMix lb_on;
  lb_on.cache_follower.gets_served_per_sec = 20'000.0;
  ServiceMix lb_off = lb_on;
  lb_off.load_balancing_enabled = false;

  auto top_share = [&](const ServiceMix& mix) {
    const auto result = run_model(fleet, host, mix, Duration::seconds(1));
    std::map<std::uint32_t, int> counts;
    int total = 0;
    for (const SimPacket& p : result.sent) {
      if (fleet.host(p.dst).role != HostRole::kWeb) continue;
      ++counts[p.dst.value()];
      ++total;
    }
    int max_count = 0;
    for (const auto& [dst, c] : counts) max_count = std::max(max_count, c);
    return static_cast<double>(max_count) / total;
  };
  EXPECT_GT(top_share(lb_off), 4.0 * top_share(lb_on));
}

}  // namespace
}  // namespace fbdcsim::services
