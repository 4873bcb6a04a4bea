#include "fbdcsim/workload/rack_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <tuple>
#include <vector>

#include "fbdcsim/topology/standard_fleet.h"
#include "fbdcsim/transport/mux.h"
#include "fbdcsim/workload/presets.h"

namespace fbdcsim::workload {
namespace {

using core::Duration;
using core::HostRole;

topology::Fleet small_rack_fleet() {
  topology::StandardFleetConfig cfg;
  cfg.sites = 2;
  cfg.datacenters_per_site = 1;
  cfg.frontend_clusters = 1;
  cfg.cache_clusters = 1;
  cfg.hadoop_clusters = 1;
  cfg.database_clusters = 1;
  cfg.service_clusters = 1;
  cfg.racks_per_cluster = 8;
  cfg.hosts_per_rack = 4;
  cfg.frontend_web_racks = 5;
  cfg.frontend_cache_racks = 1;
  cfg.frontend_multifeed_racks = 1;
  return topology::build_standard_fleet(cfg);
}

RackSimConfig quick_config(const topology::Fleet& fleet, HostRole role) {
  RackSimConfig cfg;
  cfg.monitored_host = monitored_host(fleet, role);
  cfg.warmup = Duration::millis(200);
  cfg.capture = Duration::seconds(1);
  cfg.seed = 3;
  // Keep the test cheap.
  cfg.mix.cache_follower.gets_served_per_sec = 5'000.0;
  cfg.mix.cache_leader.coherency_msgs_per_sec = 3'000.0;
  cfg.mix.web.user_requests_per_sec = 50.0;
  cfg.background_rate_scale = 0.1;
  return cfg;
}

TEST(RackSimulationTest, TraceIsSortedAndWithinWindow) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimulation sim{fleet, quick_config(fleet, HostRole::kCacheFollower)};
  const RackSimResult result = sim.run();
  ASSERT_GT(result.trace.size(), 100u);
  EXPECT_EQ(result.capture_dropped, 0);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_LE(result.trace[i - 1].timestamp, result.trace[i].timestamp);
  }
  for (const auto& pkt : result.trace) {
    EXPECT_GE(pkt.timestamp, result.capture_start);
    EXPECT_LE(pkt.timestamp, result.capture_end);
  }
}

TEST(RackSimulationTest, OnlyMonitoredHostMirrored) {
  const topology::Fleet fleet = small_rack_fleet();
  const RackSimConfig cfg = quick_config(fleet, HostRole::kCacheFollower);
  RackSimulation sim{fleet, cfg};
  const RackSimResult result = sim.run();
  const core::Ipv4Addr self = fleet.host(cfg.monitored_host).addr;
  for (const auto& pkt : result.trace) {
    EXPECT_TRUE(pkt.tuple.src_ip == self || pkt.tuple.dst_ip == self);
  }
}

TEST(RackSimulationTest, WholeRackMirrorCoversNeighbours) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimConfig cfg = quick_config(fleet, HostRole::kWeb);
  cfg.mirror_whole_rack = true;
  RackSimulation sim{fleet, cfg};
  const RackSimResult result = sim.run();

  const auto& rack = fleet.rack(fleet.host(cfg.monitored_host).rack);
  std::set<std::uint32_t> sources;
  for (const auto& pkt : result.trace) {
    const core::HostId src = fleet.host_by_addr(pkt.tuple.src_ip);
    if (src.is_valid() && fleet.host(src).rack == rack.id) sources.insert(src.value());
  }
  EXPECT_EQ(sources.size(), rack.hosts.size());
}

TEST(RackSimulationTest, DeterministicAcrossRuns) {
  const topology::Fleet fleet = small_rack_fleet();
  const RackSimConfig cfg = quick_config(fleet, HostRole::kCacheFollower);
  RackSimulation a{fleet, cfg};
  RackSimulation b{fleet, cfg};
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_EQ(ra.trace.size(), rb.trace.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(ra.trace.size(), 500); ++i) {
    EXPECT_EQ(ra.trace[i].timestamp, rb.trace[i].timestamp);
    EXPECT_EQ(ra.trace[i].tuple, rb.trace[i].tuple);
    EXPECT_EQ(ra.trace[i].frame_bytes, rb.trace[i].frame_bytes);
  }
}

TEST(RackSimulationTest, SeedChangesTrace) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimConfig cfg = quick_config(fleet, HostRole::kCacheFollower);
  RackSimulation a{fleet, cfg};
  cfg.seed = 4;
  RackSimulation b{fleet, cfg};
  EXPECT_NE(a.run().trace.size(), b.run().trace.size());
}

TEST(RackSimulationTest, SwitchCountersAccumulate) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimulation sim{fleet, quick_config(fleet, HostRole::kCacheFollower)};
  const RackSimResult result = sim.run();
  // Cache traffic leaves the rack: uplink counters must be busy.
  EXPECT_GT(result.uplink.tx_packets, 100);
  EXPECT_GT(result.uplink.tx_bytes, 10'000);
  // Inbound requests arrive at the host: downlinks busy too.
  EXPECT_GT(result.downlinks.tx_packets, 100);
}

TEST(RackSimulationTest, AggregatesEqualPerPortCountersFieldByField) {
  // result.downlinks / result.uplink must be the sum over their ports of
  // every PortCounters field, except max_queuing_delay_ns, which is the
  // max. A scripted cache rack and a DCTCP Hadoop rack between them make
  // every field nonzero, ECN marks included.
  const topology::Fleet fleet = small_rack_fleet();
  RackSimConfig scripted = quick_config(fleet, HostRole::kCacheFollower);
  RackSimConfig dctcp = quick_config(fleet, HostRole::kHadoop);
  dctcp.transport = Transport::kTcp;
  dctcp.tcp.cc = transport::CongestionControl::kDctcp;
  bool saw_queuing = false;
  bool saw_ecn = false;
  for (const RackSimConfig& cfg : {scripted, dctcp}) {
    RackSimulation sim{fleet, cfg};
    const RackSimResult result = sim.run();
    const std::size_t hosts = fleet.rack(fleet.host(cfg.monitored_host).rack).hosts.size();
    switching::PortCounters down;
    switching::PortCounters up;
    for (std::size_t p = 0; p < sim.rack_switch().num_ports(); ++p) {
      const switching::PortCounters& c = sim.rack_switch().counters(p);
      switching::PortCounters& agg = p < hosts ? down : up;
      agg.tx_packets += c.tx_packets;
      agg.tx_bytes += c.tx_bytes;
      agg.enqueued_packets += c.enqueued_packets;
      agg.dropped_packets += c.dropped_packets;
      agg.dropped_bytes += c.dropped_bytes;
      agg.queuing_delay_ns += c.queuing_delay_ns;
      agg.max_queuing_delay_ns = std::max(agg.max_queuing_delay_ns, c.max_queuing_delay_ns);
      agg.ecn_marked_packets += c.ecn_marked_packets;
    }
    for (const auto& [got, want, name] :
         {std::tuple{&result.downlinks, &down, "downlinks"},
          std::tuple{&result.uplink, &up, "uplink"}}) {
      EXPECT_EQ(got->tx_packets, want->tx_packets) << name;
      EXPECT_EQ(got->tx_bytes, want->tx_bytes) << name;
      EXPECT_EQ(got->enqueued_packets, want->enqueued_packets) << name;
      EXPECT_EQ(got->dropped_packets, want->dropped_packets) << name;
      EXPECT_EQ(got->dropped_bytes, want->dropped_bytes) << name;
      EXPECT_EQ(got->queuing_delay_ns, want->queuing_delay_ns) << name;
      EXPECT_EQ(got->max_queuing_delay_ns, want->max_queuing_delay_ns) << name;
      EXPECT_EQ(got->ecn_marked_packets, want->ecn_marked_packets) << name;
      saw_queuing = saw_queuing || want->queuing_delay_ns > 0;
      saw_ecn = saw_ecn || want->ecn_marked_packets > 0;
    }
  }
  EXPECT_TRUE(saw_queuing) << "no port queued: the delay fields went unchecked";
  EXPECT_TRUE(saw_ecn) << "no port marked: the ECN field went unchecked";
}

TEST(RackSimulationTest, BufferSamplerProducesPerSecondStats) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimConfig cfg = quick_config(fleet, HostRole::kWeb);
  cfg.sample_buffer = true;
  cfg.capture = Duration::seconds(2);
  RackSimulation sim{fleet, cfg};
  const RackSimResult result = sim.run();
  EXPECT_GE(result.buffer_seconds.size(), 2u);
  for (const auto& s : result.buffer_seconds) {
    EXPECT_GE(s.max_fraction, s.median_fraction);
    EXPECT_LE(s.max_fraction, 1.0);
  }
}

// background_rate_scale = 0 silences the unmirrored neighbours: each of
// their arrival processes stops at a zero rate instead of drawing an
// infinite gap (which once threw "cannot schedule in the past").
TEST(RackSimulationTest, ZeroBackgroundRateSilencesNeighbours) {
  const topology::Fleet fleet = small_rack_fleet();
  for (const HostRole role : {HostRole::kCacheFollower, HostRole::kHadoop}) {
    RackSimConfig cfg = quick_config(fleet, role);
    cfg.capture = Duration::millis(100);
    cfg.background_rate_scale = 0.0;
    RackSimulation sim{fleet, cfg};
    RackSimResult result;
    ASSERT_NO_THROW(result = sim.run()) << core::to_string(role);
    EXPECT_FALSE(result.trace.empty()) << core::to_string(role);
  }
}

// The mux names connections by handle, not by 5-tuple, so nothing merges two
// service connections that reuse a tuple (an ephemeral-port wrap while the
// older connection lives): they would show up here as two live connections.
TEST(RackSimulationTest, TcpWebRackHasNoTwoLiveConnectionsOnOneTuple) {
  const topology::Fleet fleet = build_rack_experiment_fleet();
  RackSimConfig cfg = default_rack_config(fleet, HostRole::kWeb, Duration::millis(300));
  cfg.warmup = Duration::millis(100);
  cfg.transport = Transport::kTcp;
  RackSimulation sim{fleet, cfg};
  (void)sim.run();
  const transport::TransportMux* mux = sim.transport_mux();
  ASSERT_NE(mux, nullptr);
  std::vector<core::FiveTuple> tuples;
  mux->for_each_connection(
      [&](const transport::TcpConnection& c) { tuples.push_back(c.tuple); });
  ASSERT_GT(tuples.size(), 100u) << "the rack must hold pooled connections at the horizon";
  std::sort(tuples.begin(), tuples.end());
  EXPECT_EQ(std::adjacent_find(tuples.begin(), tuples.end()), tuples.end());
}

// A half allocates its out-of-line SACK/reorder block only on loss or
// reordering, so a loss-free rack's connections own none.
TEST(RackSimulationTest, LossFreeTcpWebRackOwnsNoRangeBlock) {
  const topology::Fleet fleet = build_rack_experiment_fleet();
  RackSimConfig cfg = default_rack_config(fleet, HostRole::kWeb, Duration::millis(300));
  cfg.warmup = Duration::millis(100);
  cfg.transport = Transport::kTcp;
  RackSimulation sim{fleet, cfg};
  (void)sim.run();
  const transport::TransportMux* mux = sim.transport_mux();
  ASSERT_NE(mux, nullptr);
  ASSERT_EQ(mux->stats().switch_drop_notifications, 0);
  ASSERT_EQ(mux->stats().path_loss_drops, 0);
  ASSERT_EQ(mux->stats().retransmit_segments, 0);
  std::size_t live = 0;
  std::size_t with_block = 0;
  mux->for_each_connection([&](const transport::TcpConnection& c) {
    ++live;
    with_block += (c.out.ranges ? 1 : 0) + (c.in.ranges ? 1 : 0);
  });
  ASSERT_GT(live, 100u);
  EXPECT_EQ(with_block, 0u);
}

TEST(RackSimulationTest, RequiresMonitoredHost) {
  const topology::Fleet fleet = small_rack_fleet();
  RackSimConfig cfg;
  EXPECT_THROW(RackSimulation(fleet, cfg), std::invalid_argument);
}

void expect_rack_slots_index_rack_hosts(const topology::Fleet& fleet) {
  std::size_t checked = 0;
  for (const topology::Rack& rack : fleet.racks()) {
    for (std::size_t i = 0; i < rack.hosts.size(); ++i, ++checked) {
      ASSERT_EQ(std::size_t{fleet.host(rack.hosts[i]).rack_slot}, i)
          << "rack " << rack.id.value();
    }
  }
  EXPECT_EQ(checked, fleet.num_hosts());
}

TEST(HostRackSlotTest, EqualsIndexInRackHosts) {
  static_assert(sizeof(topology::Host) == 28, "rack_slot must fit in Host's padding");
  expect_rack_slots_index_rack_hosts(build_rack_experiment_fleet());
  expect_rack_slots_index_rack_hosts(build_fleet_experiment_fleet());
}

TEST(RswDownlinkPortTest, MatchesRackScanAndRejectsOtherRacks) {
  const topology::Fleet fleet = build_rack_experiment_fleet();
  const RackSimConfig cfg = quick_config(fleet, HostRole::kCacheFollower);
  const RackSimulation sim{fleet, cfg};
  const topology::Host& self = fleet.host(cfg.monitored_host);
  const auto& members = fleet.rack(self.rack).hosts;
  ASSERT_GT(members.size(), 1u);
  for (const core::HostId h : members) {
    const auto scanned = static_cast<std::size_t>(
        std::distance(members.begin(), std::find(members.begin(), members.end(), h)));
    EXPECT_EQ(sim.downlink_port(h), std::optional<std::size_t>{scanned});
  }

  // Hosts elsewhere have no downlink here, even those whose slot is a
  // valid port number of this rack.
  std::optional<core::HostId> same_cluster;
  std::optional<core::HostId> other_dc;
  for (const topology::Host& h : fleet.hosts()) {
    if (h.rack == self.rack || h.rack_slot >= members.size()) continue;
    if (!same_cluster && h.cluster == self.cluster && h.rack_slot > 0) same_cluster = h.id;
    if (!other_dc && h.datacenter != self.datacenter) other_dc = h.id;
  }
  ASSERT_TRUE(same_cluster && other_dc);
  EXPECT_EQ(sim.downlink_port(*same_cluster), std::nullopt);
  EXPECT_EQ(sim.downlink_port(*other_dc), std::nullopt);
}

TEST(ScaleRatesTest, ScalesEveryRateField) {
  services::ServiceMix mix;
  const services::ServiceMix scaled = scale_rates(mix, 0.5);
  EXPECT_DOUBLE_EQ(scaled.web.user_requests_per_sec, mix.web.user_requests_per_sec * 0.5);
  EXPECT_DOUBLE_EQ(scaled.cache_follower.gets_served_per_sec,
                   mix.cache_follower.gets_served_per_sec * 0.5);
  EXPECT_DOUBLE_EQ(scaled.cache_leader.coherency_msgs_per_sec,
                   mix.cache_leader.coherency_msgs_per_sec * 0.5);
  EXPECT_DOUBLE_EQ(scaled.hadoop.transfers_per_sec_busy,
                   mix.hadoop.transfers_per_sec_busy * 0.5);
  // Non-rate fields unchanged.
  EXPECT_EQ(scaled.web.cache_get_request, mix.web.cache_get_request);

  // A zero factor zeroes every arrival rate of the mix.
  const services::ServiceMix z = scale_rates(mix, 0.0);
  int rates = 0;
  for (const double rate :
       {z.web.user_requests_per_sec, z.web.ephemeral_per_sec,
        z.cache_follower.gets_served_per_sec, z.cache_follower.ephemeral_per_sec,
        z.cache_leader.coherency_msgs_per_sec, z.cache_leader.db_ops_per_sec,
        z.cache_leader.ephemeral_per_sec, z.hadoop.transfers_per_sec_busy,
        z.hadoop.control_msgs_per_sec, z.multifeed.requests_served_per_sec,
        z.slb.user_requests_per_sec, z.database.queries_served_per_sec,
        z.service.messages_per_sec}) {
    EXPECT_EQ(rate, 0.0) << "rate " << rates++;
  }
}

TEST(PresetsTest, MonitoredHostHasRequestedRole) {
  const topology::Fleet fleet = small_rack_fleet();
  for (const HostRole role : {HostRole::kWeb, HostRole::kCacheFollower, HostRole::kHadoop}) {
    EXPECT_EQ(fleet.host(monitored_host(fleet, role)).role, role);
  }
  EXPECT_THROW(
      (void)monitored_host(
          topology::build_single_cluster_fleet(topology::ClusterType::kHadoop, 2, 2),
          HostRole::kWeb),
      std::invalid_argument);
}

TEST(PresetsTest, DefaultConfigMirrorsWholeWebRack) {
  const topology::Fleet fleet = small_rack_fleet();
  EXPECT_TRUE(default_rack_config(fleet, HostRole::kWeb).mirror_whole_rack);
  EXPECT_FALSE(default_rack_config(fleet, HostRole::kCacheFollower).mirror_whole_rack);
}

}  // namespace
}  // namespace fbdcsim::workload
