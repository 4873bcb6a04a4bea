#include "fbdcsim/topology/entities.h"

#include <gtest/gtest.h>

#include <set>

#include "fbdcsim/topology/addressing.h"
#include "fbdcsim/workload/presets.h"

namespace fbdcsim::topology {
namespace {

Fleet two_dc_fleet() {
  FleetBuilder b;
  const SiteId site = b.add_site("s0");
  const DatacenterId dc0 = b.add_datacenter(site);
  const DatacenterId dc1 = b.add_datacenter(site);
  const ClusterId c0 = b.add_cluster(dc0, ClusterType::kFrontend);
  const ClusterId c1 = b.add_cluster(dc0, ClusterType::kHadoop);
  const ClusterId c2 = b.add_cluster(dc1, ClusterType::kCache);
  b.add_rack_of(c0, core::HostRole::kWeb, 4);
  b.add_rack_of(c0, core::HostRole::kCacheFollower, 4);
  b.add_rack_of(c1, core::HostRole::kHadoop, 4);
  b.add_rack_of(c2, core::HostRole::kCacheLeader, 4);
  return b.build();
}

TEST(FleetBuilderTest, CountsAndHierarchy) {
  const Fleet f = two_dc_fleet();
  EXPECT_EQ(f.sites().size(), 1u);
  EXPECT_EQ(f.datacenters().size(), 2u);
  EXPECT_EQ(f.clusters().size(), 3u);
  EXPECT_EQ(f.num_racks(), 4u);
  EXPECT_EQ(f.num_hosts(), 16u);

  const Host& h = f.host(core::HostId{0});
  EXPECT_EQ(h.role, core::HostRole::kWeb);
  EXPECT_EQ(f.rack(h.rack).cluster, h.cluster);
  EXPECT_EQ(f.cluster(h.cluster).datacenter, h.datacenter);
  EXPECT_EQ(f.datacenter(h.datacenter).site, h.site);
}

TEST(FleetBuilderTest, RacksAreRoleHomogeneous) {
  const Fleet f = two_dc_fleet();
  for (const Rack& rack : f.racks()) {
    for (const core::HostId h : rack.hosts) {
      EXPECT_EQ(f.host(h).role, rack.role);
    }
  }
}

TEST(FleetBuilderTest, AddressesAreUniqueAndResolvable) {
  const Fleet f = two_dc_fleet();
  std::set<std::uint32_t> addrs;
  for (const Host& h : f.hosts()) {
    EXPECT_TRUE(addrs.insert(h.addr.value()).second) << "duplicate " << h.addr.to_string();
    EXPECT_EQ(f.host_by_addr(h.addr), h.id);
  }
}

TEST(FleetBuilderTest, UnknownAddressResolvesInvalid) {
  const Fleet f = two_dc_fleet();
  EXPECT_FALSE(f.host_by_addr(core::Ipv4Addr{192, 168, 0, 1}).is_valid());
  EXPECT_FALSE(f.host_by_addr(core::Ipv4Addr{10, 200, 0, 0}).is_valid());
}

TEST(FleetTest, LocalityClassification) {
  const Fleet f = two_dc_fleet();
  // Hosts 0..3 are rack 0 (cluster 0, dc 0); 4..7 rack 1 (cluster 0);
  // 8..11 rack 2 (cluster 1, dc 0); 12..15 rack 3 (cluster 2, dc 1).
  using core::HostId;
  using core::Locality;
  EXPECT_EQ(f.locality(HostId{0}, HostId{1}), Locality::kIntraRack);
  EXPECT_EQ(f.locality(HostId{0}, HostId{4}), Locality::kIntraCluster);
  EXPECT_EQ(f.locality(HostId{0}, HostId{8}), Locality::kIntraDatacenter);
  EXPECT_EQ(f.locality(HostId{0}, HostId{12}), Locality::kInterDatacenter);
}

TEST(FleetTest, LocalityIsSymmetricInClass) {
  const Fleet f = two_dc_fleet();
  for (std::uint32_t a = 0; a < f.num_hosts(); a += 3) {
    for (std::uint32_t b = 0; b < f.num_hosts(); b += 5) {
      if (a == b) continue;
      EXPECT_EQ(f.locality(core::HostId{a}, core::HostId{b}),
                f.locality(core::HostId{b}, core::HostId{a}));
    }
  }
}

TEST(FleetTest, HostsWithRole) {
  const Fleet f = two_dc_fleet();
  EXPECT_EQ(f.hosts_with_role(core::HostRole::kWeb).size(), 4u);
  EXPECT_EQ(f.hosts_with_role(core::HostRole::kHadoop).size(), 4u);
  EXPECT_EQ(f.hosts_with_role(core::HostRole::kDatabase).size(), 0u);
  const auto web_in_c0 =
      f.hosts_with_role_in_cluster(core::HostRole::kWeb, core::ClusterId{0});
  EXPECT_EQ(web_in_c0.size(), 4u);
  EXPECT_TRUE(
      f.hosts_with_role_in_cluster(core::HostRole::kWeb, core::ClusterId{1}).empty());
}

TEST(AddressPlanTest, RoundTrip) {
  const core::Ipv4Addr a = AddressPlan::address_for(3, 100, 7);
  const auto coords = AddressPlan::coordinates_of(a);
  ASSERT_TRUE(coords.has_value());
  EXPECT_EQ(coords->dc_index, 3u);
  EXPECT_EQ(coords->rack_in_dc, 100u);
  EXPECT_EQ(coords->host_in_rack, 7u);
}

TEST(AddressPlanTest, RejectsOutOfRange) {
  EXPECT_THROW((void)AddressPlan::address_for(32, 0, 0), std::out_of_range);
  EXPECT_THROW((void)AddressPlan::address_for(0, 2048, 0), std::out_of_range);
  EXPECT_THROW((void)AddressPlan::address_for(0, 0, 256), std::out_of_range);
}

TEST(AddressPlanTest, NonTenSlashEightIsNotOurs) {
  EXPECT_FALSE(AddressPlan::coordinates_of(core::Ipv4Addr{192, 168, 1, 1}).has_value());
}

/// FNV-1a over every host's (id, address) in id order.
std::uint64_t address_digest(const Fleet& f) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(f.num_hosts());
  for (const Host& host : f.hosts()) {
    mix(host.id.value());
    mix(host.addr.value());
  }
  return h;
}

void expect_round_trip(const Fleet& f) {
  for (const Host& h : f.hosts()) {
    ASSERT_EQ(f.host_by_addr(h.addr), h.id) << h.addr.to_string();
  }
}

// The digests were generated before the builder's rack_in_dc computation
// and host_by_addr's lookup table were rewritten: every preset address is
// unchanged.
TEST(HostByAddrTest, PresetFleetAddressesArePinned) {
  const Fleet rack_fleet = workload::build_rack_experiment_fleet();
  const Fleet fleet_fleet = workload::build_fleet_experiment_fleet();
  EXPECT_EQ(rack_fleet.num_hosts(), 81'920u);
  EXPECT_EQ(address_digest(rack_fleet), 0x3FEDD4F57DCD24EAULL);
  EXPECT_EQ(address_digest(fleet_fleet), 0x65F2027A408023AEULL);
}

TEST(HostByAddrTest, RoundTripsEveryPresetHost) {
  expect_round_trip(workload::build_rack_experiment_fleet());
  expect_round_trip(workload::build_fleet_experiment_fleet());
}

TEST(HostByAddrTest, RoundTripsRacksAddedAcrossClusters) {
  // Racks of one datacenter's clusters added interleaved, and a rack built
  // empty and filled later: addresses still follow cluster declaration
  // order within the datacenter.
  FleetBuilder b;
  const SiteId site = b.add_site("s0");
  const DatacenterId dc0 = b.add_datacenter(site);
  const DatacenterId dc1 = b.add_datacenter(site);
  const ClusterId c0 = b.add_cluster(dc0, ClusterType::kFrontend);
  const ClusterId c1 = b.add_cluster(dc0, ClusterType::kHadoop);
  const ClusterId c2 = b.add_cluster(dc1, ClusterType::kCache);
  const RackId r0 = b.add_rack(c0, core::HostRole::kWeb);
  const RackId r1 = b.add_rack(c0, core::HostRole::kWeb);
  b.add_host(r0);
  b.add_rack_of(c2, core::HostRole::kCacheLeader, 3);
  b.add_host(r1);
  b.add_host(r0);
  b.add_rack_of(c1, core::HostRole::kHadoop, 2);
  const Fleet f = b.build();
  expect_round_trip(f);
  // c1's rack comes after c0's two racks in dc0.
  const Host& hadoop = f.host(f.rack(RackId{3}).hosts[1]);
  const auto coords = AddressPlan::coordinates_of(hadoop.addr);
  ASSERT_TRUE(coords.has_value());
  EXPECT_EQ(coords->dc_index, 0u);
  EXPECT_EQ(coords->rack_in_dc, 2u);
  EXPECT_EQ(coords->host_in_rack, 1u);
}

TEST(HostByAddrTest, OutOfRangeCoordinatesResolveInvalid) {
  const Fleet f = two_dc_fleet();  // dc0: racks 0..2, dc1: rack 0; 4 hosts each
  EXPECT_TRUE(f.host_by_addr(AddressPlan::address_for(0, 2, 3)).is_valid());
  EXPECT_TRUE(f.host_by_addr(AddressPlan::address_for(1, 0, 3)).is_valid());
  EXPECT_FALSE(f.host_by_addr(AddressPlan::address_for(2, 0, 0)).is_valid());   // dc
  EXPECT_FALSE(f.host_by_addr(AddressPlan::address_for(31, 0, 0)).is_valid());
  EXPECT_FALSE(f.host_by_addr(AddressPlan::address_for(0, 3, 0)).is_valid());   // rack
  EXPECT_FALSE(f.host_by_addr(AddressPlan::address_for(1, 1, 0)).is_valid());
  EXPECT_FALSE(f.host_by_addr(AddressPlan::address_for(0, 2047, 0)).is_valid());
  EXPECT_FALSE(f.host_by_addr(AddressPlan::address_for(0, 0, 4)).is_valid());   // host
  EXPECT_FALSE(f.host_by_addr(AddressPlan::address_for(1, 0, 255)).is_valid());
  EXPECT_FALSE(f.host_by_addr(core::Ipv4Addr{11, 0, 0, 0}).is_valid());
  EXPECT_FALSE(Fleet{}.host_by_addr(AddressPlan::address_for(0, 0, 0)).is_valid());
}

}  // namespace
}  // namespace fbdcsim::topology
