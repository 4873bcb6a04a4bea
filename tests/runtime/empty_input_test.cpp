// Explicit empty- and minimal-input contracts for the sharded fleet runner.
// Before this suite existed, a zero-host fleet silently exercised the full
// worker machinery; now it is a defined no-op, and a single-host fleet is
// pinned to serial behavior. ThreadPoolTest covers empty and one-task
// batches on the pool itself.
#include <gtest/gtest.h>

#include <vector>

#include "fbdcsim/runtime/sharded_fleet.h"
#include "fbdcsim/topology/entities.h"

namespace fbdcsim::runtime {
namespace {

using core::FlowRecord;

topology::Fleet single_host_fleet() {
  topology::FleetBuilder b;
  const auto site = b.add_site("prn");
  const auto dc = b.add_datacenter(site);
  const auto cluster = b.add_cluster(dc, topology::ClusterType::kHadoop);
  const auto rack = b.add_rack(cluster, core::HostRole::kHadoop);
  b.add_host(rack);
  return b.build();
}

TEST(EmptyInputTest, ShardedRunnerOnEmptyFleetIsANoOp) {
  const topology::Fleet fleet = topology::FleetBuilder{}.build();
  ASSERT_EQ(fleet.num_hosts(), 0u);
  workload::FleetGenConfig cfg;
  cfg.horizon = core::Duration::minutes(30);
  const workload::FleetFlowGenerator gen{fleet, cfg};
  ThreadPool pool{2};
  const ShardedFleetRunner runner{gen, pool};

  EXPECT_EQ(runner.num_hosts(), 0u);
  EXPECT_EQ(runner.num_shards(), 0u);
  std::int64_t seen = 0;
  runner.stream([&](const FlowRecord&) { ++seen; });
  EXPECT_EQ(seen, 0);
  EXPECT_TRUE(runner.collect_flows().empty());
}

TEST(EmptyInputTest, ShardedRunnerOnEmptyFleetStaysUsableAcrossCalls) {
  const topology::Fleet fleet = topology::FleetBuilder{}.build();
  const workload::FleetFlowGenerator gen{fleet, workload::FleetGenConfig{}};
  ThreadPool pool{1};
  const ShardedFleetRunner runner{gen, pool};
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(runner.collect_flows().empty()) << i;
  }
  // The pool is still healthy for real work after the no-op runs.
  const std::vector<int> one{7};
  EXPECT_EQ(pool.parallel_map(one, [](int v) { return v; }).at(0), 7);
}

TEST(EmptyInputTest, ShardedRunnerSingleHostMatchesSerialForAnyWorkerCount) {
  const topology::Fleet fleet = single_host_fleet();
  workload::FleetGenConfig cfg;
  cfg.horizon = core::Duration::hours(1);
  cfg.seed = 5;
  const workload::FleetFlowGenerator gen{fleet, cfg};

  std::vector<FlowRecord> serial;
  gen.generate([&](const FlowRecord& f) { serial.push_back(f); });

  for (const int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    ThreadPool pool{workers};
    const ShardedFleetRunner runner{gen, pool};
    EXPECT_EQ(runner.num_hosts(), 1u);
    EXPECT_EQ(runner.num_shards(), 1u);  // one shard: merge order is trivial
    const auto parallel = runner.collect_flows();
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].tuple, serial[i].tuple) << i;
      EXPECT_EQ(parallel[i].start.count_nanos(), serial[i].start.count_nanos()) << i;
      EXPECT_EQ(parallel[i].bytes.count_bytes(), serial[i].bytes.count_bytes()) << i;
    }
  }
}

}  // namespace
}  // namespace fbdcsim::runtime
