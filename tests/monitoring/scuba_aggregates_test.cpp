// ScubaTable's locality and cluster queries read per-cluster-pair integer
// sums kept as rows land. Each must equal a plain scan of rows() — the
// per-row double sums the queries used to compute — bit for bit: on a
// faulted pipeline with partial rows, on hand-built rows with invalid
// cluster ids, and for shard tables merged in either order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/monitoring/fbflow.h"
#include "fbdcsim/topology/standard_fleet.h"

namespace fbdcsim::monitoring {
namespace {

using core::ClusterId;
using core::DatacenterId;
using topology::ClusterType;

constexpr ClusterType kTypes[] = {ClusterType::kFrontend, ClusterType::kCache,
                                  ClusterType::kHadoop, ClusterType::kDatabase,
                                  ClusterType::kService};

topology::Fleet two_dc_fleet() {
  topology::StandardFleetConfig cfg;
  cfg.sites = 1;
  cfg.datacenters_per_site = 2;
  cfg.frontend_clusters = 1;
  cfg.cache_clusters = 1;
  cfg.hadoop_clusters = 2;
  cfg.database_clusters = 1;
  cfg.service_clusters = 1;
  cfg.racks_per_cluster = 4;
  cfg.hosts_per_rack = 4;
  cfg.frontend_web_racks = 2;
  cfg.frontend_cache_racks = 1;
  cfg.frontend_multifeed_racks = 1;
  return topology::build_standard_fleet(cfg);
}

double est(const TaggedSample& r, std::int64_t rate) {
  return static_cast<double>(r.sample.frame_bytes) * static_cast<double>(rate);
}

// ---- the row scans the aggregate queries replaced ----

ScubaTable::LocalityBytes scan_locality(const ScubaTable& t, std::int64_t rate) {
  ScubaTable::LocalityBytes out;
  for (const TaggedSample& r : t.rows()) {
    if (!r.partial) out.bytes[static_cast<int>(r.locality)] += est(r, rate);
  }
  return out;
}

ScubaTable::LocalityBytes scan_locality_for_type(const ScubaTable& t,
                                                 const topology::Fleet& fleet,
                                                 ClusterType type, std::int64_t rate) {
  ScubaTable::LocalityBytes out;
  for (const TaggedSample& r : t.rows()) {
    if (r.partial || fleet.cluster(r.src_cluster).type != type) continue;
    out.bytes[static_cast<int>(r.locality)] += est(r, rate);
  }
  return out;
}

std::vector<double> scan_by_type(const ScubaTable& t, const topology::Fleet& fleet,
                                 std::int64_t rate) {
  std::vector<double> out(std::size(kTypes), 0.0);
  for (const TaggedSample& r : t.rows()) {
    if (r.partial) continue;
    const ClusterType type = fleet.cluster(r.src_cluster).type;
    for (std::size_t i = 0; i < std::size(kTypes); ++i) {
      if (kTypes[i] == type) out[i] += est(r, rate);
    }
  }
  return out;
}

std::vector<std::vector<double>> scan_cluster_matrix(const ScubaTable& t,
                                                     const topology::Fleet& fleet,
                                                     DatacenterId dc, std::int64_t rate) {
  const auto& clusters = fleet.datacenter(dc).clusters;
  std::vector<std::vector<double>> m(clusters.size(), std::vector<double>(clusters.size(), 0.0));
  const auto pos = [&](ClusterId c) -> std::ptrdiff_t {
    const auto it = std::find(clusters.begin(), clusters.end(), c);
    return it == clusters.end() ? -1 : it - clusters.begin();
  };
  for (const TaggedSample& r : t.rows()) {
    if (r.partial || r.src_dc != dc || r.dst_dc != dc) continue;
    const std::ptrdiff_t si = pos(r.src_cluster);
    const std::ptrdiff_t di = pos(r.dst_cluster);
    if (si < 0 || di < 0) continue;
    m[static_cast<std::size_t>(si)][static_cast<std::size_t>(di)] += est(r, rate);
  }
  return m;
}

void expect_same(const ScubaTable::LocalityBytes& got, const ScubaTable::LocalityBytes& want) {
  for (int l = 0; l < core::kNumLocalities; ++l) EXPECT_EQ(got.bytes[l], want.bytes[l]) << l;
}

void expect_locality_queries_match_scan(const ScubaTable& t, std::int64_t rate) {
  expect_same(t.locality_bytes(rate), scan_locality(t, rate));
}

void expect_cluster_queries_match_scan(const ScubaTable& t, const topology::Fleet& fleet,
                                       std::int64_t rate) {
  for (const ClusterType type : kTypes) {
    expect_same(t.locality_bytes_for_cluster_type(fleet, type, rate),
                scan_locality_for_type(t, fleet, type, rate));
  }
  const auto by_type = t.bytes_by_cluster_type(fleet, rate);
  const auto want = scan_by_type(t, fleet, rate);
  ASSERT_EQ(by_type.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(by_type[i].first, kTypes[i]);
    EXPECT_EQ(by_type[i].second, want[i]) << i;
  }
}

void expect_matrix_matches_scan(const ScubaTable& t, const topology::Fleet& fleet,
                                std::int64_t rate) {
  for (const auto& dc : fleet.datacenters()) {
    EXPECT_EQ(t.cluster_matrix(fleet, dc.id, rate), scan_cluster_matrix(t, fleet, dc.id, rate));
  }
}

void expect_all_match_scan(const ScubaTable& t, const topology::Fleet& fleet,
                           std::int64_t rate) {
  expect_locality_queries_match_scan(t, rate);
  expect_cluster_queries_match_scan(t, fleet, rate);
  expect_matrix_matches_scan(t, fleet, rate);
}

/// Flows from every host to a spread of destinations: every locality,
/// several clusters per datacenter, both datacenters.
std::vector<core::FlowRecord> fleet_flows(const topology::Fleet& fleet) {
  std::vector<core::FlowRecord> flows;
  const auto hosts = fleet.hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (const std::size_t step : {std::size_t{1}, std::size_t{7}, hosts.size() / 2 + 3}) {
      const topology::Host& src = hosts[i];
      const topology::Host& dst = hosts[(i + step) % hosts.size()];
      core::FlowRecord f;
      f.tuple = core::FiveTuple{src.addr, dst.addr, static_cast<std::uint16_t>(40000 + step),
                                80, core::Protocol::kTcp};
      f.src_host = src.id;
      f.dst_host = dst.id;
      f.start = core::TimePoint::zero() + core::Duration::seconds(static_cast<std::int64_t>(i));
      f.duration = core::Duration::seconds(90);
      f.packets = 400 + static_cast<std::int64_t>((i * 37 + step) % 900);
      f.bytes = core::DataSize::bytes(f.packets * (200 + static_cast<std::int64_t>(i % 1200)));
      flows.push_back(f);
    }
  }
  return flows;
}

TEST(ScubaAggregatesTest, FaultedPipelineWithPartialRowsMatchesRowScan) {
  const topology::Fleet fleet = two_dc_fleet();
  faults::FaultConfig cfg = faults::heavy_profile();
  cfg.tag_failure_prob = 0.2;
  const faults::FaultPlan plan{cfg};
  constexpr std::int64_t kRate = 50;
  FbflowPipeline pipeline{fleet, kRate, core::RngStream{11}, &plan};
  for (const auto& f : fleet_flows(fleet)) pipeline.offer_flow(f);

  ASSERT_GT(pipeline.partial_rows(), 0);
  ASSERT_GT(pipeline.scuba().size(), static_cast<std::size_t>(pipeline.partial_rows()));
  const ScubaTable& t = pipeline.scuba();
  const auto loc = t.locality_bytes(kRate);
  for (int l = 0; l < core::kNumLocalities; ++l) EXPECT_GT(loc.bytes[l], 0.0) << l;
  expect_all_match_scan(t, fleet, kRate);
  // Another rate: the sums are stored unscaled.
  expect_all_match_scan(t, fleet, 30'000);
}

TEST(ScubaAggregatesTest, InvalidClusterIdsGiveTheRowScanAnswers) {
  const topology::Fleet fleet = two_dc_fleet();
  const Tagger tagger{fleet};
  const auto hosts = fleet.hosts();
  const auto tagged = [&](std::size_t src, std::size_t dst, std::int64_t bytes) {
    SampledPacket s;
    s.tuple = core::FiveTuple{hosts[src].addr, hosts[dst].addr, 1, 2, core::Protocol::kTcp};
    s.frame_bytes = bytes;
    s.reporter = hosts[src].id;
    TaggedSample row;
    EXPECT_TRUE(tagger.tag(s, row));
    return row;
  };

  ScubaTable t;
  t.add(tagged(0, 1, 1500));
  t.add(tagged(0, hosts.size() - 1, 900));
  t.add(tagged(20, 40, 66));
  // Unknown destination: counts toward locality, never placed in a matrix.
  TaggedSample no_dst = tagged(3, 50, 1234);
  no_dst.dst_cluster = ClusterId::invalid();
  no_dst.dst_dc = DatacenterId::invalid();
  t.add(no_dst);
  // Partial rows carry no annotations and are excluded everywhere.
  TaggedSample partial;
  partial.sample.frame_bytes = 777;
  partial.partial = true;
  t.add(partial);
  expect_all_match_scan(t, fleet, 30'000);

  // An unknown source as well: locality still counts it, the matrix skips
  // it, and the cluster-type queries throw, as the row scan's lookup does.
  TaggedSample no_src = tagged(5, 6, 4321);
  no_src.src_cluster = ClusterId::invalid();
  no_src.src_dc = DatacenterId::invalid();
  t.add(no_src);
  expect_locality_queries_match_scan(t, 30'000);
  expect_matrix_matches_scan(t, fleet, 30'000);
  EXPECT_THROW((void)scan_by_type(t, fleet, 30'000), std::out_of_range);
  EXPECT_THROW((void)t.bytes_by_cluster_type(fleet, 30'000), std::out_of_range);
  for (const ClusterType type : kTypes) {
    EXPECT_THROW((void)t.locality_bytes_for_cluster_type(fleet, type, 30'000),
                 std::out_of_range);
  }

  // A source cluster id past the fleet's clusters throws the same way.
  ScubaTable beyond;
  TaggedSample far = tagged(0, 1, 10);
  far.src_cluster = ClusterId{static_cast<std::uint32_t>(fleet.clusters().size() + 2)};
  beyond.add(far);
  expect_locality_queries_match_scan(beyond, 7);
  EXPECT_THROW((void)beyond.bytes_by_cluster_type(fleet, 7), std::out_of_range);
}

TEST(ScubaAggregatesTest, MergeOrderDoesNotChangeAnyAggregate) {
  const topology::Fleet fleet = two_dc_fleet();
  const faults::FaultPlan plan{faults::heavy_profile()};
  constexpr std::int64_t kRate = 20;
  const auto flows = fleet_flows(fleet);
  // Four shard pipelines over contiguous reporter ranges, as the parallel
  // runner would hand them out.
  constexpr std::size_t kShards = 4;
  std::vector<std::unique_ptr<FbflowPipeline>> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.push_back(
        std::make_unique<FbflowPipeline>(fleet, kRate, core::RngStream{5}, &plan));
  }
  const std::size_t per_shard = (fleet.num_hosts() + kShards - 1) / kShards;
  for (const auto& f : flows) shards[f.src_host.value() / per_shard]->offer_flow(f);

  FbflowPipeline forward{fleet, kRate, core::RngStream{5}, &plan};
  for (std::size_t s = 0; s < kShards; ++s) forward.merge(*shards[s]);
  FbflowPipeline reverse{fleet, kRate, core::RngStream{5}, &plan};
  for (std::size_t s = kShards; s-- > 0;) reverse.merge(*shards[s]);
  FbflowPipeline serial{fleet, kRate, core::RngStream{5}, &plan};
  for (const auto& f : flows) serial.offer_flow(f);

  ASSERT_EQ(forward.scuba().size(), serial.scuba().size());
  ASSERT_EQ(reverse.scuba().size(), serial.scuba().size());
  for (const FbflowPipeline* p : {&forward, &reverse, &serial}) {
    expect_all_match_scan(p->scuba(), fleet, kRate);
    expect_same(p->scuba().locality_bytes(kRate), serial.scuba().locality_bytes(kRate));
    for (const ClusterType type : kTypes) {
      expect_same(p->scuba().locality_bytes_for_cluster_type(fleet, type, kRate),
                  serial.scuba().locality_bytes_for_cluster_type(fleet, type, kRate));
    }
    EXPECT_EQ(p->scuba().bytes_by_cluster_type(fleet, kRate),
              serial.scuba().bytes_by_cluster_type(fleet, kRate));
    for (const auto& dc : fleet.datacenters()) {
      EXPECT_EQ(p->scuba().cluster_matrix(fleet, dc.id, kRate),
                serial.scuba().cluster_matrix(fleet, dc.id, kRate));
    }
  }

  // Merging an empty table, or into one, changes nothing.
  ScubaTable empty;
  EXPECT_EQ(empty.locality_bytes(kRate).total(), 0.0);
  empty.merge(serial.scuba());
  expect_all_match_scan(empty, fleet, kRate);
  empty.merge(ScubaTable{});
  expect_all_match_scan(empty, fleet, kRate);
}

}  // namespace
}  // namespace fbdcsim::monitoring
