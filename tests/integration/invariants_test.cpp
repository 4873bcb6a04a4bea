// Property-style invariant sweeps across modules (parameterized gtest).
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "fbdcsim/analysis/heavy_hitters.h"
#include "fbdcsim/monitoring/fbflow.h"
#include "fbdcsim/services/connections.h"
#include "fbdcsim/services/traffic_model.h"
#include "fbdcsim/switching/switch.h"
#include "fbdcsim/topology/fabric.h"
#include "fbdcsim/topology/standard_fleet.h"

namespace fbdcsim {
namespace {

using core::DataSize;
using core::Duration;
using core::TimePoint;

// ---------------------------------------------------------------------------
// Switch conservation: every enqueued byte is transmitted, dropped, or
// still queued — under randomized arrivals, rates, and buffer configs.
// ---------------------------------------------------------------------------

struct SwitchSweepParam {
  std::uint64_t seed;
  std::int64_t buffer_bytes;
  double alpha;
  int ports;
};

class SwitchConservationSweep : public ::testing::TestWithParam<SwitchSweepParam> {};

TEST_P(SwitchConservationSweep, BytesConserved) {
  const SwitchSweepParam param = GetParam();
  core::RngStream rng{param.seed};
  sim::Simulator sim;
  switching::SwitchConfig cfg;
  cfg.num_ports = static_cast<std::size_t>(param.ports);
  cfg.buffer_total = DataSize::bytes(param.buffer_bytes);
  cfg.dt_alpha = param.alpha;
  cfg.port_rate = core::DataRate::gigabits_per_sec(1);

  std::int64_t delivered_bytes = 0;
  std::int64_t delivered_packets = 0;
  switching::SharedBufferSwitch sw{
      sim, cfg, [&](std::size_t, const switching::SimPacket& pkt) {
        delivered_bytes += pkt.header.frame_bytes;
        ++delivered_packets;
      }};

  std::int64_t offered_bytes = 0;
  std::int64_t accepted_bytes = 0;
  const int kPackets = 3000;
  for (int i = 0; i < kPackets; ++i) {
    switching::SimPacket pkt;
    pkt.header.frame_bytes = rng.uniform_int(64, 1514);
    offered_bytes += pkt.header.frame_bytes;
    const auto port = static_cast<std::size_t>(rng.uniform_int(0, param.ports - 1));
    if (sw.enqueue(port, pkt)) accepted_bytes += pkt.header.frame_bytes;
    // Randomly advance time so queues partially drain.
    if (rng.bernoulli(0.3)) {
      sim.run_until(sim.now() + Duration::micros(rng.uniform_int(1, 50)));
    }
  }
  sim.run();  // drain everything

  std::int64_t dropped_bytes = 0;
  std::int64_t enqueued_packets = 0;
  std::int64_t dropped_packets = 0;
  std::int64_t tx_packets = 0;
  for (std::size_t p = 0; p < sw.num_ports(); ++p) {
    dropped_bytes += sw.counters(p).dropped_bytes;
    dropped_packets += sw.counters(p).dropped_packets;
    enqueued_packets += sw.counters(p).enqueued_packets;
    tx_packets += sw.counters(p).tx_packets;
  }
  EXPECT_EQ(delivered_bytes, accepted_bytes);
  EXPECT_EQ(accepted_bytes + dropped_bytes, offered_bytes);
  EXPECT_EQ(enqueued_packets, tx_packets);
  EXPECT_EQ(enqueued_packets + dropped_packets, kPackets);
  EXPECT_EQ(delivered_packets, tx_packets);
  EXPECT_EQ(sw.buffer_occupancy(), DataSize::bytes(0));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SwitchConservationSweep,
    ::testing::Values(SwitchSweepParam{1, 10'000, 1.0, 4},
                      SwitchSweepParam{2, 1'000'000, 2.0, 16},
                      SwitchSweepParam{3, 5'000, 0.1, 2},
                      SwitchSweepParam{4, 200'000, 8.0, 20},
                      SwitchSweepParam{5, 3'000, 1.0, 1}));

// ---------------------------------------------------------------------------
// Wire conservation: send/receive emit exactly the payload requested, for
// any payload size.
// ---------------------------------------------------------------------------

class WireConservationSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(WireConservationSweep, PayloadConserved) {
  const auto fleet = topology::build_single_cluster_fleet(topology::ClusterType::kHadoop, 2, 2);
  sim::Simulator sim;
  std::int64_t out_payload = 0;
  std::int64_t in_payload = 0;

  class Sink : public services::TrafficSink {
   public:
    Sink(std::int64_t& out, std::int64_t& in) : out_{out}, in_{in} {}
    void host_send(const services::SimPacket& pkt) override {
      out_ += pkt.header.payload_bytes;
    }
    void host_receive(const services::SimPacket& pkt) override {
      in_ += pkt.header.payload_bytes;
    }

   private:
    std::int64_t& out_;
    std::int64_t& in_;
  } sink{out_payload, in_payload};

  const core::HostId self = fleet.hosts()[0].id;
  const core::HostId peer = fleet.hosts()[3].id;
  services::ConnectionTable table{fleet, self};
  services::Wire wire{sim, sink, self};
  services::Connection& conn = table.pooled(services::Dir::kOut, peer, 80);

  const std::int64_t payload = GetParam();
  for (const services::Dir dir : {services::Dir::kOut, services::Dir::kIn}) {
    wire.send(dir, conn, DataSize::bytes(payload), TimePoint::zero(), Duration::micros(1), false);
  }
  sim.run();
  EXPECT_EQ(out_payload, payload);
  EXPECT_EQ(in_payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WireConservationSweep,
                         ::testing::Values(1, 64, 1460, 1461, 2920, 10'000, 1'000'000));

// ---------------------------------------------------------------------------
// Analytic sampling is unbiased across sampling rates: the estimated byte
// volume (samples x rate x mean frame) tracks the true volume.
// ---------------------------------------------------------------------------

class SamplerUnbiasednessSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SamplerUnbiasednessSweep, VolumeEstimateUnbiased) {
  const auto fleet = topology::build_single_cluster_fleet(topology::ClusterType::kFrontend, 4, 4);
  const std::int64_t rate = GetParam();
  monitoring::FbflowPipeline pipeline{fleet, rate, core::RngStream{21}};

  const std::int64_t per_flow_payload = 1'000'000;
  const std::int64_t packets_per_flow = 1'000;  // 1000 B payload each
  const int flows = 600;
  double true_frame_bytes = 0;
  for (int i = 0; i < flows; ++i) {
    core::FlowRecord f;
    f.tuple = core::FiveTuple{fleet.hosts()[0].addr,
                              fleet.hosts()[static_cast<std::size_t>(1 + i % 15)].addr,
                              static_cast<core::Port>(40000 + i), 80, core::Protocol::kTcp};
    f.src_host = fleet.hosts()[0].id;
    f.dst_host = fleet.hosts()[static_cast<std::size_t>(1 + i % 15)].id;
    f.start = TimePoint::zero();
    f.duration = Duration::seconds(10);
    f.bytes = DataSize::bytes(per_flow_payload);
    f.packets = packets_per_flow;
    pipeline.offer_flow(f);
    true_frame_bytes += static_cast<double>(packets_per_flow) *
                        static_cast<double>(core::wire::tcp_frame_bytes(1000));
  }
  const double estimated = pipeline.scuba().locality_bytes(rate).total();
  // Relative error shrinks with sample count; allow 4 sigma.
  const double expected_samples =
      static_cast<double>(flows) * packets_per_flow / static_cast<double>(rate);
  const double rel_sigma = 1.0 / std::sqrt(expected_samples);
  EXPECT_NEAR(estimated / true_frame_bytes, 1.0, 4.0 * rel_sigma)
      << "rate 1:" << rate << " samples " << pipeline.scuba().size();
}

INSTANTIATE_TEST_SUITE_P(Rates, SamplerUnbiasednessSweep,
                         ::testing::Values(10, 100, 1'000, 10'000));

// ---------------------------------------------------------------------------
// Heavy-hitter algebra: for any random bin, the selected set is minimal
// and covers >= the requested fraction.
// ---------------------------------------------------------------------------

class HeavyHitterPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeavyHitterPropertySweep, MinimalCoverage) {
  core::RngStream rng{GetParam()};
  std::unordered_map<std::uint64_t, double> bin;
  const int keys = static_cast<int>(rng.uniform_int(1, 400));
  double total = 0;
  for (int k = 0; k < keys; ++k) {
    const double v = rng.exponential(1.0) * rng.uniform(1.0, 100.0);
    bin[static_cast<std::uint64_t>(k)] = v;
    total += v;
  }
  const auto hh = analysis::heavy_hitters_of(bin, 0.5);
  double covered = 0;
  double smallest_selected = 1e300;
  for (const auto key : hh) {
    covered += bin.at(key);
    smallest_selected = std::min(smallest_selected, bin.at(key));
  }
  EXPECT_GE(covered, 0.5 * total * (1 - 1e-12));
  // Minimality: dropping the smallest selected key must fall below 50%.
  EXPECT_LT(covered - smallest_selected, 0.5 * total);
  // No unselected key is strictly bigger than a selected one.
  double biggest_unselected = 0;
  const std::unordered_set<std::uint64_t> selected{hh.begin(), hh.end()};
  for (const auto& [key, v] : bin) {
    if (!selected.contains(key)) biggest_unselected = std::max(biggest_unselected, v);
  }
  EXPECT_GE(smallest_selected, biggest_unselected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeavyHitterPropertySweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Router validity across topologies: every (src, dst) pair yields a
// contiguous path from src's NIC to dst's NIC, on both 4-post and Fabric.
// ---------------------------------------------------------------------------

class RouterValiditySweep : public ::testing::TestWithParam<bool> {};

TEST_P(RouterValiditySweep, RandomPairsAreRoutable) {
  topology::StandardFleetConfig cfg;
  cfg.sites = 2;
  cfg.datacenters_per_site = 2;
  cfg.racks_per_cluster = 4;
  cfg.hosts_per_rack = 2;
  cfg.frontend_web_racks = 2;
  cfg.frontend_cache_racks = 1;
  cfg.frontend_multifeed_racks = 1;
  const auto fleet = topology::build_standard_fleet(cfg);
  const topology::Network net = GetParam() ? topology::FabricBuilder{}.build(fleet)
                                           : topology::FourPostBuilder{}.build(fleet);
  const topology::Router router{fleet, net};

  core::RngStream rng{5};
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(fleet.num_hosts()) - 1));
    const auto b = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(fleet.num_hosts()) - 1));
    if (a == b) continue;
    const core::FiveTuple tuple{fleet.host(core::HostId{a}).addr,
                                fleet.host(core::HostId{b}).addr,
                                static_cast<core::Port>(30000 + i), 80, core::Protocol::kTcp};
    const auto path = router.route(core::HostId{a}, core::HostId{b}, tuple);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(net.link(path.front()).from, topology::NodeRef::host(core::HostId{a}));
    EXPECT_EQ(net.link(path.back()).to, topology::NodeRef::host(core::HostId{b}));
    for (std::size_t h = 1; h < path.size(); ++h) {
      EXPECT_EQ(net.link(path[h - 1]).to, net.link(path[h]).from);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, RouterValiditySweep, ::testing::Bool());

}  // namespace
}  // namespace fbdcsim
