#include "fbdcsim/monitoring/link_stats.h"

#include <gtest/gtest.h>

#include "fbdcsim/topology/standard_fleet.h"

namespace fbdcsim::monitoring {
namespace {

using core::DataSize;
using core::Duration;
using core::TimePoint;

class LinkStatsTest : public ::testing::Test {
 protected:
  LinkStatsTest()
      : fleet_{topology::build_single_cluster_fleet(topology::ClusterType::kHadoop, 2, 2)},
        net_{topology::FourPostBuilder{}.build(fleet_)} {}

  topology::Fleet fleet_;
  topology::Network net_;
};

TEST_F(LinkStatsTest, SingleMinuteUtilization) {
  LinkStats stats{net_, Duration::minutes(1)};
  const core::LinkId link = net_.access_uplink(core::HostId{0});
  // 10 Gbps for 60 s = 75e9 bytes at 100%; charge 7.5e9 -> 10%.
  stats.add(link, TimePoint::zero(), Duration::seconds(60), DataSize::bytes(7'500'000'000));
  EXPECT_NEAR(stats.utilization(link, 0), 0.10, 1e-9);
}

TEST_F(LinkStatsTest, SplitsAcrossMinutes) {
  LinkStats stats{net_, Duration::minutes(2)};
  const core::LinkId link = net_.access_uplink(core::HostId{0});
  // A flow spanning 30s..90s: half its bytes in each minute.
  stats.add(link, TimePoint::from_seconds(30.0), Duration::seconds(60),
            DataSize::bytes(1'000'000));
  const double m0 = stats.utilization(link, 0);
  const double m1 = stats.utilization(link, 1);
  EXPECT_NEAR(m0, m1, 1e-12);
  EXPECT_GT(m0, 0.0);
}

TEST_F(LinkStatsTest, InstantaneousChargeLandsInOneMinute) {
  LinkStats stats{net_, Duration::minutes(2)};
  const core::LinkId link = net_.access_uplink(core::HostId{0});
  stats.add(link, TimePoint::from_seconds(70.0), Duration{}, DataSize::bytes(750'000));
  EXPECT_DOUBLE_EQ(stats.utilization(link, 0), 0.0);
  EXPECT_GT(stats.utilization(link, 1), 0.0);
}

TEST_F(LinkStatsTest, PathChargesEveryLink) {
  LinkStats stats{net_, Duration::minutes(1)};
  const topology::Router router{fleet_, net_};
  const core::HostId src{0};
  const core::HostId dst{static_cast<std::uint32_t>(fleet_.num_hosts() - 1)};
  const core::FiveTuple tuple{fleet_.host(src).addr, fleet_.host(dst).addr, 40000, 80,
                              core::Protocol::kTcp};
  const auto path = router.route(src, dst, tuple);
  stats.add_path(path, TimePoint::zero(), Duration::seconds(60), DataSize::megabytes(75));
  for (const core::LinkId link : path) {
    EXPECT_GT(stats.utilization(link, 0), 0.0);
  }
}

TEST_F(LinkStatsTest, MeanUtilization) {
  LinkStats stats{net_, Duration::minutes(4)};
  const core::LinkId link = net_.access_uplink(core::HostId{0});
  stats.add(link, TimePoint::zero(), Duration::seconds(60), DataSize::bytes(7'500'000'000));
  // 10% in minute 0, 0 in the remaining three -> mean 2.5%.
  EXPECT_NEAR(stats.mean_utilization(link), 0.025, 1e-9);
}

TEST_F(LinkStatsTest, UtilizationsWhereFiltersLinks) {
  LinkStats stats{net_, Duration::minutes(1)};
  const auto access_only = stats.utilizations_where([](const topology::Link& link) {
    return link.from.kind == topology::NodeRef::Kind::kHost;
  });
  EXPECT_EQ(access_only.size(), fleet_.num_hosts());  // one uplink each, one minute
}

TEST_F(LinkStatsTest, RejectsZeroHorizon) {
  EXPECT_THROW(LinkStats(net_, Duration{}), std::invalid_argument);
}

}  // namespace
}  // namespace fbdcsim::monitoring
