// Determinism regression suite for the parallel fleet runner: the parallel
// stream must be bit-identical to the serial FleetFlowGenerator::generate
// for every worker count and shard size, and so must every aggregate built
// from it (the Table 3 locality matrix above all).
#include "fbdcsim/runtime/sharded_fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fbdcsim/monitoring/fbflow.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/topology/standard_fleet.h"

namespace fbdcsim::runtime {
namespace {

using core::FlowRecord;

topology::Fleet runner_fleet() {
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

workload::FleetGenConfig runner_config() {
  workload::FleetGenConfig cfg;
  cfg.horizon = core::Duration::hours(1);
  cfg.epoch = core::Duration::minutes(30);
  cfg.seed = 19;
  // Keep the sampled-header volume (and the test's runtime) small.
  cfg.rate_scale = 0.001;
  return cfg;
}

void expect_identical(const std::vector<FlowRecord>& a, const std::vector<FlowRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].tuple, b[i].tuple) << "flow " << i;
    ASSERT_EQ(a[i].src_host, b[i].src_host) << "flow " << i;
    ASSERT_EQ(a[i].dst_host, b[i].dst_host) << "flow " << i;
    ASSERT_EQ(a[i].start.count_nanos(), b[i].start.count_nanos()) << "flow " << i;
    ASSERT_EQ(a[i].duration.count_nanos(), b[i].duration.count_nanos()) << "flow " << i;
    ASSERT_EQ(a[i].bytes.count_bytes(), b[i].bytes.count_bytes()) << "flow " << i;
    ASSERT_EQ(a[i].packets, b[i].packets) << "flow " << i;
  }
}

TEST(ShardedFleetRunnerTest, StreamMatchesSerialForEveryWorkerCount) {
  const topology::Fleet fleet = runner_fleet();
  const workload::FleetFlowGenerator gen{fleet, runner_config()};

  std::vector<FlowRecord> serial;
  gen.generate([&](const FlowRecord& f) { serial.push_back(f); });
  ASSERT_FALSE(serial.empty());

  for (const int workers : {1, 2, 8}) {
    ThreadPool pool{workers};
    const ShardedFleetRunner runner{gen, pool};
    const auto parallel = runner.collect_flows();
    SCOPED_TRACE(workers);
    expect_identical(serial, parallel);
  }
}

TEST(ShardedFleetRunnerTest, ShardSizeDoesNotChangeTheStream) {
  const topology::Fleet fleet = runner_fleet();
  const workload::FleetFlowGenerator gen{fleet, runner_config()};
  ThreadPool pool{4};

  std::vector<FlowRecord> serial;
  gen.generate([&](const FlowRecord& f) { serial.push_back(f); });

  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{7}, std::size_t{512}}) {
    ShardOptions opts;
    opts.shard_size = shard_size;
    const ShardedFleetRunner runner{gen, pool, opts};
    SCOPED_TRACE(shard_size);
    expect_identical(serial, runner.collect_flows());
  }
}

TEST(ShardedFleetRunnerTest, LocalityMatrixBitIdenticalAcrossWorkerCounts) {
  // The acceptance gate: the Table 3 pipeline (flows -> Fbflow sampling ->
  // Scuba locality query) lands on byte-for-byte identical aggregates no
  // matter how many workers generated the flows.
  const topology::Fleet fleet = runner_fleet();
  const workload::FleetFlowGenerator gen{fleet, runner_config()};

  monitoring::FbflowPipeline serial_pipe{fleet, 1'000, core::RngStream{99}};
  double serial_bytes = 0.0;
  std::int64_t serial_flows = 0;
  gen.generate([&](const FlowRecord& f) {
    serial_pipe.offer_flow(f);
    serial_bytes += static_cast<double>(f.bytes.count_bytes());
    ++serial_flows;
  });
  const auto serial_locality = serial_pipe.scuba().locality_bytes(1'000);
  ASSERT_GT(serial_pipe.scuba().size(), 0u);

  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE(workers);
    ThreadPool pool{workers};
    const ShardedFleetRunner runner{gen, pool};
    monitoring::FbflowPipeline pipe{fleet, 1'000, core::RngStream{99}};
    double bytes = 0.0;
    std::int64_t flows = 0;
    runner.stream([&](const FlowRecord& f) {
      pipe.offer_flow(f);
      bytes += static_cast<double>(f.bytes.count_bytes());
      ++flows;
    });
    EXPECT_EQ(flows, serial_flows);
    // Byte totals accumulate in the identical order -> identical doubles.
    EXPECT_EQ(bytes, serial_bytes);
    ASSERT_EQ(pipe.scuba().size(), serial_pipe.scuba().size());
    const auto locality = pipe.scuba().locality_bytes(1'000);
    for (int l = 0; l < core::kNumLocalities; ++l) {
      EXPECT_EQ(locality.bytes[l], serial_locality.bytes[l]) << "locality " << l;
    }
  }
}

TEST(ShardedFleetRunnerTest, SinkExceptionPropagates) {
  const topology::Fleet fleet = runner_fleet();
  const workload::FleetFlowGenerator gen{fleet, runner_config()};
  ThreadPool pool{4};
  const ShardedFleetRunner runner{gen, pool};

  std::int64_t seen = 0;
  EXPECT_THROW(runner.stream([&](const FlowRecord&) {
    if (++seen == 100) throw std::runtime_error{"sink failed"};
  }),
               std::runtime_error);

  // The runner and pool stay usable after the failure.
  const auto flows = runner.collect_flows();
  EXPECT_FALSE(flows.empty());
}

TEST(ShardedFleetRunnerTest, WorkerExceptionPropagatesAfterInFlightShardsDrain) {
  // A failing shard surfaces on the calling thread, but only once every
  // posted shard has finished: the tasks reference the stream's frame.
  // Flows that did reach the sink are a prefix of the shards before it.
  ThreadPool pool{4};
  constexpr std::size_t kShards = 24;
  for (const std::size_t failing : {std::size_t{0}, std::size_t{5}, kShards - 1}) {
    SCOPED_TRACE(failing);
    std::atomic<int> running{0};
    std::vector<std::int64_t> delivered;
    const auto fill = [&](std::size_t i, std::vector<FlowRecord>& buf) {
      ++running;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      --running;
      if (i == failing) throw std::runtime_error{"shard failed"};
      FlowRecord f;
      f.packets = static_cast<std::int64_t>(i);
      buf.push_back(f);
    };
    EXPECT_THROW(detail::stream_shards(pool, kShards, 6, fill,
                                       [&](const FlowRecord& f) {
                                         delivered.push_back(f.packets);
                                       }),
                 std::runtime_error);
    EXPECT_EQ(running.load(), 0);
    ASSERT_LE(delivered.size(), failing);
    for (std::size_t k = 0; k < delivered.size(); ++k) {
      EXPECT_EQ(delivered[k], static_cast<std::int64_t>(k));
    }
  }

  // The pool stays usable after the failure.
  const topology::Fleet fleet = runner_fleet();
  const workload::FleetFlowGenerator gen{fleet, runner_config()};
  const ShardedFleetRunner runner{gen, pool};
  EXPECT_FALSE(runner.collect_flows().empty());
}

TEST(ShardedFleetRunnerTest, SlowSinkKeepsTheWindowFullAndBounded) {
  // Refill-on-consume: the first `window` shards are posted up front and
  // each consumed shard posts exactly one more, so when the sink reaches
  // shard k, min(nshards, k + window) shards have been posted and at most
  // `window` of them are outstanding. A slow sink gives the workers every
  // chance to run ahead of that bound.
  const topology::Fleet fleet = runner_fleet();
  const workload::FleetFlowGenerator gen{fleet, runner_config()};
  std::vector<FlowRecord> serial;
  gen.generate([&](const FlowRecord& f) { serial.push_back(f); });

  std::vector<std::size_t> host_index(fleet.num_hosts());
  for (std::size_t h = 0; h < fleet.hosts().size(); ++h) {
    host_index[fleet.hosts()[h].id.value()] = h;
  }

  ThreadPool pool{4};
  ShardOptions opts;
  opts.shard_size = 4;
  opts.max_buffered_shards = 3;
  const ShardedFleetRunner runner{gen, pool, opts};
  const std::size_t nshards = runner.num_shards();
  ASSERT_GT(nshards, 3 * opts.max_buffered_shards);

#if FBDCSIM_TELEMETRY_ENABLED
  const telemetry::Counter& posted = telemetry::MetricsRegistry::global().counter(
      "runtime.pool.tasks_posted", telemetry::Kind::kSim);
  const std::int64_t posted_before = posted.value();
#endif
  std::vector<FlowRecord> flows;
  std::size_t shards_seen = 0;
  std::size_t current = nshards;  // no shard yet
  runner.stream([&](const FlowRecord& f) {
    const std::size_t k = host_index[f.src_host.value()] / opts.shard_size;
    if (k != current) {
      current = k;
      ++shards_seen;
#if FBDCSIM_TELEMETRY_ENABLED
      const auto expected =
          static_cast<std::int64_t>(std::min(nshards, k + opts.max_buffered_shards));
      EXPECT_EQ(posted.value() - posted_before, expected) << "at shard " << k;
#endif
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    flows.push_back(f);
  });
#if FBDCSIM_TELEMETRY_ENABLED
  EXPECT_EQ(posted.value() - posted_before, static_cast<std::int64_t>(nshards));
#endif
  EXPECT_GT(shards_seen, nshards / 2);
  expect_identical(serial, flows);
}

}  // namespace
}  // namespace fbdcsim::runtime
