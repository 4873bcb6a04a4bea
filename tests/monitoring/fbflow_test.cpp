#include "fbdcsim/monitoring/fbflow.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fbdcsim/topology/standard_fleet.h"

namespace fbdcsim::monitoring {
namespace {

using core::DataSize;
using core::Duration;
using core::TimePoint;

topology::Fleet small_fleet() {
  topology::StandardFleetConfig cfg;
  cfg.sites = 2;
  cfg.datacenters_per_site = 1;
  cfg.frontend_clusters = 1;
  cfg.cache_clusters = 1;
  cfg.hadoop_clusters = 1;
  cfg.database_clusters = 1;
  cfg.service_clusters = 1;
  cfg.racks_per_cluster = 4;
  cfg.hosts_per_rack = 4;
  cfg.frontend_web_racks = 2;
  cfg.frontend_cache_racks = 1;
  cfg.frontend_multifeed_racks = 1;
  return topology::build_standard_fleet(cfg);
}

core::FlowRecord flow_between(const topology::Fleet& fleet, core::HostId src, core::HostId dst,
                              std::int64_t bytes, std::int64_t packets) {
  core::FlowRecord f;
  f.tuple = core::FiveTuple{fleet.host(src).addr, fleet.host(dst).addr, 40000, 80,
                            core::Protocol::kTcp};
  f.src_host = src;
  f.dst_host = dst;
  f.start = TimePoint::zero();
  f.duration = Duration::seconds(10);
  f.bytes = DataSize::bytes(bytes);
  f.packets = packets;
  return f;
}

TEST(AnalyticSamplerTest, ExpectationMatchesRate) {
  const topology::Fleet fleet = small_fleet();
  AnalyticSampler sampler{1000, core::RngStream{5}};
  std::int64_t selected = 0;
  // 2000 flows x 5000 packets = 10M packets; expect ~10k samples.
  const auto flow = flow_between(fleet, core::HostId{0}, core::HostId{5}, 5'000'000, 5'000);
  for (int i = 0; i < 2000; ++i) {
    sampler.sample_flow(flow, [&](const SampledPacket&) { ++selected; });
  }
  EXPECT_NEAR(static_cast<double>(selected), 10'000.0, 400.0);
}

TEST(AnalyticSamplerTest, SampleTimestampsWithinFlow) {
  const topology::Fleet fleet = small_fleet();
  AnalyticSampler sampler{10, core::RngStream{5}};
  auto flow = flow_between(fleet, core::HostId{0}, core::HostId{5}, 100'000, 1'000);
  flow.start = TimePoint::from_seconds(5.0);
  flow.duration = Duration::seconds(2);
  sampler.sample_flow(flow, [&](const SampledPacket& s) {
    EXPECT_GE(s.captured_at, flow.start);
    EXPECT_LE(s.captured_at, flow.end());
    EXPECT_EQ(s.tuple, flow.tuple);
  });
}

TEST(AnalyticSamplerTest, ZeroPacketFlowIsIgnored) {
  const topology::Fleet fleet = small_fleet();
  AnalyticSampler sampler{10, core::RngStream{5}};
  auto flow = flow_between(fleet, core::HostId{0}, core::HostId{5}, 0, 0);
  sampler.sample_flow(flow, [&](const SampledPacket&) { FAIL(); });
}

TEST(TaggerTest, AnnotatesTopologyMetadata) {
  const topology::Fleet fleet = small_fleet();
  const Tagger tagger{fleet};
  const core::HostId src{0};
  const core::HostId dst{5};

  SampledPacket s;
  s.captured_at = TimePoint::from_seconds(90.0);
  s.tuple = core::FiveTuple{fleet.host(src).addr, fleet.host(dst).addr, 40000, 80,
                            core::Protocol::kTcp};
  s.frame_bytes = 1000;
  s.reporter = src;

  TaggedSample tagged;
  ASSERT_TRUE(tagger.tag(s, tagged));
  EXPECT_EQ(tagged.src_host, src);
  EXPECT_EQ(tagged.dst_host, dst);
  EXPECT_EQ(tagged.src_rack, fleet.host(src).rack);
  EXPECT_EQ(tagged.dst_cluster, fleet.host(dst).cluster);
  EXPECT_EQ(tagged.locality, fleet.locality(src, dst));
  EXPECT_EQ(tagged.minute, 1);
}

TEST(TaggerTest, RejectsUnknownAddresses) {
  const topology::Fleet fleet = small_fleet();
  const Tagger tagger{fleet};
  SampledPacket s;
  s.tuple = core::FiveTuple{core::Ipv4Addr{192, 168, 0, 1}, fleet.hosts()[0].addr, 1, 2,
                            core::Protocol::kTcp};
  TaggedSample tagged;
  EXPECT_FALSE(tagger.tag(s, tagged));
}

TEST(ScubaTableTest, LocalityBytesScaledBySamplingRate) {
  const topology::Fleet fleet = small_fleet();
  const Tagger tagger{fleet};
  ScubaTable table;

  // One intra-rack sample (hosts 0,1) and one inter-DC (0, last host).
  auto make = [&](core::HostId src, core::HostId dst, std::int64_t bytes) {
    SampledPacket s;
    s.tuple = core::FiveTuple{fleet.host(src).addr, fleet.host(dst).addr, 40000, 80,
                              core::Protocol::kTcp};
    s.frame_bytes = bytes;
    TaggedSample tagged;
    EXPECT_TRUE(tagger.tag(s, tagged));
    table.add(tagged);
  };
  make(core::HostId{0}, core::HostId{1}, 100);
  make(core::HostId{0}, fleet.hosts().back().id, 300);

  const auto bytes = table.locality_bytes(30'000);
  EXPECT_DOUBLE_EQ(bytes.bytes[static_cast<int>(core::Locality::kIntraRack)], 100.0 * 30'000);
  EXPECT_DOUBLE_EQ(bytes.bytes[static_cast<int>(core::Locality::kInterDatacenter)],
                   300.0 * 30'000);
  const auto pct = bytes.percentages();
  EXPECT_NEAR(pct[static_cast<int>(core::Locality::kIntraRack)], 25.0, 1e-9);
  EXPECT_NEAR(pct[static_cast<int>(core::Locality::kInterDatacenter)], 75.0, 1e-9);
}

TEST(ScubaTableTest, RackMatrixPlacesBytes) {
  const topology::Fleet fleet = small_fleet();
  const Tagger tagger{fleet};
  ScubaTable table;

  // Frontend cluster is cluster 0 with 4 racks of 4 hosts.
  const auto& cluster = fleet.cluster(core::ClusterId{0});
  const core::HostId a = fleet.rack(cluster.racks[0]).hosts[0];
  const core::HostId b = fleet.rack(cluster.racks[2]).hosts[1];
  SampledPacket s;
  s.tuple = core::FiveTuple{fleet.host(a).addr, fleet.host(b).addr, 40000, 80,
                            core::Protocol::kTcp};
  s.frame_bytes = 10;
  TaggedSample tagged;
  ASSERT_TRUE(tagger.tag(s, tagged));
  table.add(tagged);

  const auto m = table.rack_matrix(fleet, core::ClusterId{0}, 100);
  ASSERT_EQ(m.size(), 4u);
  EXPECT_DOUBLE_EQ(m[0][2], 1000.0);
  EXPECT_DOUBLE_EQ(m[2][0], 0.0);
}

TEST(FbflowPipelineTest, FlowModeEndToEnd) {
  const topology::Fleet fleet = small_fleet();
  FbflowPipeline pipeline{fleet, 100, core::RngStream{7}};
  // A hefty intra-cluster flow: expect ~1000 samples at 1:100.
  const auto flow = flow_between(fleet, core::HostId{0}, core::HostId{5}, 100'000'000, 100'000);
  pipeline.offer_flow(flow);
  EXPECT_NEAR(static_cast<double>(pipeline.scuba().size()), 1000.0, 150.0);
  EXPECT_EQ(pipeline.tag_failures(), 0);
  // Fault-free, every published sample lands as one row.
  EXPECT_EQ(pipeline.scribe_published(), static_cast<std::int64_t>(pipeline.scuba().size()));
  // Estimated bytes should be near the true flow bytes.
  const auto bytes = pipeline.scuba().locality_bytes(pipeline.sampling_rate());
  EXPECT_NEAR(bytes.total(), 100'000'000.0 * core::wire::tcp_frame_bytes(1000) / 1000.0,
              2.5e7);
}

TEST(FbflowPipelineTest, SamplingIndependentOfCrossHostInterleaving) {
  // The determinism contract behind parallel fleet runs: each reporter host
  // samples from its own forked stream, so host A's samples are the same
  // whether A's flows arrive grouped or interleaved with host B's.
  const topology::Fleet fleet = small_fleet();
  const core::HostId a{0}, b{1}, dst{5};
  const auto flow_a = flow_between(fleet, a, dst, 10'000'000, 10'000);
  const auto flow_b = flow_between(fleet, b, dst, 10'000'000, 10'000);

  FbflowPipeline interleaved{fleet, 100, core::RngStream{7}};
  for (int i = 0; i < 4; ++i) {
    interleaved.offer_flow(flow_a);
    interleaved.offer_flow(flow_b);
  }
  FbflowPipeline grouped{fleet, 100, core::RngStream{7}};
  for (int i = 0; i < 4; ++i) grouped.offer_flow(flow_a);
  for (int i = 0; i < 4; ++i) grouped.offer_flow(flow_b);

  // Per-host sample sequences must match exactly (timestamps and bytes).
  const auto rows_for = [](const FbflowPipeline& p, core::HostId reporter) {
    std::vector<std::pair<std::int64_t, std::int64_t>> rows;
    for (const TaggedSample& row : p.scuba().rows()) {
      if (row.src_host == reporter) {
        rows.emplace_back(row.sample.captured_at.count_nanos(), row.sample.frame_bytes);
      }
    }
    return rows;
  };
  for (const core::HostId host : {a, b}) {
    const auto lhs = rows_for(interleaved, host);
    const auto rhs = rows_for(grouped, host);
    ASSERT_FALSE(lhs.empty());
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(FbflowPipelineTest, RowsMatchPerReporterSamplersUnderInterleaving) {
  // offer_flow caches the last reporter's sampler. Whatever the arrival
  // order (runs, alternation, returning to an earlier reporter), every
  // row must equal the one an independent sampler for that reporter,
  // forked the documented way, would land.
  const topology::Fleet fleet = small_fleet();
  const core::HostId a{0}, b{1}, c{6}, dst{5};
  const std::vector<core::HostId> order = {a, b, a, a, c, b, b, a, c, c, a, b};
  std::vector<core::FlowRecord> flows;
  for (std::size_t i = 0; i < order.size(); ++i) {
    auto f = flow_between(fleet, order[i], dst, 2'000'000 + 1000 * static_cast<std::int64_t>(i),
                          2'000 + static_cast<std::int64_t>(i));
    f.start = TimePoint::zero() + Duration::seconds(static_cast<std::int64_t>(i));
    flows.push_back(f);
  }

  FbflowPipeline pipeline{fleet, 100, core::RngStream{7}};
  for (const auto& f : flows) pipeline.offer_flow(f);

  const core::RngStream analytic_root = core::RngStream{7}.fork("analytic");
  std::unordered_map<std::uint64_t, AnalyticSampler> samplers;
  const Tagger tagger{fleet};
  std::vector<TaggedSample> expected;
  for (const auto& f : flows) {
    const std::uint64_t key = f.src_host.value();
    auto it = samplers.find(key);
    if (it == samplers.end()) {
      it = samplers.emplace(key, AnalyticSampler{100, analytic_root.fork("analytic-host", key)})
               .first;
    }
    it->second.sample_flow(f, [&](const SampledPacket& s) {
      TaggedSample row;
      ASSERT_TRUE(tagger.tag(s, row));
      expected.push_back(row);
    });
  }

  const auto rows = pipeline.scuba().rows();
  ASSERT_EQ(rows.size(), expected.size());
  ASSERT_GT(rows.size(), order.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].sample.captured_at.count_nanos(),
              expected[i].sample.captured_at.count_nanos())
        << i;
    EXPECT_EQ(rows[i].sample.tuple, expected[i].sample.tuple) << i;
    EXPECT_EQ(rows[i].sample.frame_bytes, expected[i].sample.frame_bytes) << i;
    EXPECT_EQ(rows[i].sample.reporter, expected[i].sample.reporter) << i;
    EXPECT_EQ(rows[i].locality, expected[i].locality) << i;
    EXPECT_EQ(rows[i].minute, expected[i].minute) << i;
    EXPECT_FALSE(rows[i].partial) << i;
  }
}

TEST(FbflowPipelineTest, MergeReproducesSerialPipeline) {
  // Two shard pipelines (same seed, disjoint reporter hosts) merged in
  // shard order match a serial pipeline fed the grouped flow stream.
  const topology::Fleet fleet = small_fleet();
  const core::HostId a{0}, b{1}, dst{5};
  const auto flow_a = flow_between(fleet, a, dst, 10'000'000, 10'000);
  const auto flow_b = flow_between(fleet, b, dst, 10'000'000, 10'000);

  FbflowPipeline serial{fleet, 100, core::RngStream{7}};
  for (int i = 0; i < 4; ++i) serial.offer_flow(flow_a);
  for (int i = 0; i < 4; ++i) serial.offer_flow(flow_b);

  FbflowPipeline shard_a{fleet, 100, core::RngStream{7}};
  for (int i = 0; i < 4; ++i) shard_a.offer_flow(flow_a);
  FbflowPipeline shard_b{fleet, 100, core::RngStream{7}};
  for (int i = 0; i < 4; ++i) shard_b.offer_flow(flow_b);
  shard_a.merge(shard_b);

  ASSERT_EQ(shard_a.scuba().size(), serial.scuba().size());
  const auto merged_rows = shard_a.scuba().rows();
  const auto serial_rows = serial.scuba().rows();
  for (std::size_t i = 0; i < merged_rows.size(); ++i) {
    EXPECT_EQ(merged_rows[i].sample.captured_at.count_nanos(),
              serial_rows[i].sample.captured_at.count_nanos())
        << i;
    EXPECT_EQ(merged_rows[i].sample.frame_bytes, serial_rows[i].sample.frame_bytes) << i;
    EXPECT_EQ(merged_rows[i].src_host, serial_rows[i].src_host) << i;
  }
  EXPECT_EQ(shard_a.scribe_published(), serial.scribe_published());
  EXPECT_EQ(shard_a.tag_failures(), serial.tag_failures());

  const auto merged_loc = shard_a.scuba().locality_bytes(100);
  const auto serial_loc = serial.scuba().locality_bytes(100);
  for (int l = 0; l < core::kNumLocalities; ++l) {
    EXPECT_EQ(merged_loc.bytes[l], serial_loc.bytes[l]) << l;
  }
}

TEST(FbflowPipelineTest, MergeRejectsMismatchedSamplingRates) {
  const topology::Fleet fleet = small_fleet();
  FbflowPipeline a{fleet, 100, core::RngStream{7}};
  const FbflowPipeline b{fleet, 200, core::RngStream{7}};
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

}  // namespace
}  // namespace fbdcsim::monitoring
