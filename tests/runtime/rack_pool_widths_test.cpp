// Rack captures across thread-pool widths.
//
// One Simulator is strictly single-threaded, but the runtime layer runs
// many captures concurrently (ThreadPool::parallel_map), and DESIGN.md §7
// promises Kind::kSim telemetry is bit-identical across thread counts.
// This suite runs the same 4-capture batch (every monitored-role preset)
// on pools of 1, 2, and 8 workers — the FBDCSIM_THREADS settings CI
// exercises — with faults off and heavy, and asserts every per-capture
// fingerprint and the merged sim-metric JSON are identical across widths.
// The single-width output itself is pinned by
// tests/golden/transport_scripted.golden.txt.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "../support/rack_fingerprint.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/topology/standard_fleet.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

namespace fbdcsim::workload {
namespace {

using core::HostRole;
using tests::fingerprint;
using tests::sim_metrics_json;

struct BatchOutcome {
  std::vector<std::uint64_t> fingerprints;
  std::string sim_metrics;
};

BatchOutcome run_batch(const topology::Fleet& fleet, int workers,
                       const faults::FaultPlan* plan) {
  const std::vector<HostRole> roles{HostRole::kWeb, HostRole::kCacheFollower,
                                    HostRole::kCacheLeader, HostRole::kHadoop};
  std::vector<std::function<std::uint64_t()>> tasks;
  tasks.reserve(roles.size());
  for (const HostRole role : roles) {
    tasks.push_back([&fleet, plan, role] {
      RackSimConfig cfg = default_rack_config(fleet, role, core::Duration::millis(200));
      cfg.warmup = core::Duration::millis(100);
      cfg.faults = plan;
      RackSimulation rack{fleet, cfg};
      return fingerprint(rack.run());
    });
  }

  telemetry::MetricsRegistry::global().reset();
  BatchOutcome out;
  {
    // Scope the pool so workers are joined before the snapshot: a worker
    // bumps runtime.pool.tasks_completed after delivering its result, so
    // snapshotting while the pool lives would race that last increment.
    runtime::ThreadPool pool{workers};
    out.fingerprints = pool.parallel_map(tasks, [](const auto& task) { return task(); });
  }
  out.sim_metrics = sim_metrics_json();
  return out;
}

class RackPoolWidths : public ::testing::TestWithParam<bool> {};

TEST_P(RackPoolWidths, IdenticalAcrossPoolWidths) {
  const bool heavy = GetParam();
  const topology::Fleet fleet = build_rack_experiment_fleet();
  faults::FaultPlan plan{faults::heavy_profile()};
  const faults::FaultPlan* faults = heavy ? &plan : nullptr;

  const BatchOutcome baseline = run_batch(fleet, 1, faults);
  ASSERT_EQ(baseline.fingerprints.size(), 4u);

  for (const int workers : {2, 8}) {
    const BatchOutcome got = run_batch(fleet, workers, faults);
    EXPECT_EQ(got.fingerprints, baseline.fingerprints) << "workers=" << workers;
    EXPECT_EQ(got.sim_metrics, baseline.sim_metrics) << "workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(Faults, RackPoolWidths, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? std::string{"Heavy"} : std::string{"Off"};
                         });

}  // namespace
}  // namespace fbdcsim::workload
