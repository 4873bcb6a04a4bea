// Differential gate for the observability layer (DESIGN.md §11): the
// time-series JSON, tracepoint JSONL, and flows JSONL a capture produces
// are part of its deterministic output, so they must be bit-identical
// across thread-pool widths 1/2/8 (one Simulator per capture on the pool)
// under the heaviest observable load we can arrange: flow-level TCP with
// the heavy fault profile, so drops, RTO fires, fast-retransmit
// transitions, and fault epochs all hit the flight recorder.
//
// On mismatch the flight-recorder JSONL is printed to stderr — the
// dump-on-differential-mismatch workflow the flight recorder exists for.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fbdcsim/core/time.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/runtime/parallel_capture.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/telemetry/timeseries.h"
#include "fbdcsim/telemetry/tracepoint.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

namespace fbdcsim::telemetry {
namespace {

using core::HostRole;

/// Canonical serialized observability output of one capture.
struct ObsOutput {
  std::string timeseries_json;
  std::string tracepoints_jsonl;
  std::string flows_jsonl;
  std::int64_t tracepoint_total{0};
  std::int64_t flows_total{0};
};

workload::RackSimConfig obs_config(const topology::Fleet& fleet, HostRole role,
                                   const faults::FaultPlan* plan) {
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, role, core::Duration::millis(200));
  cfg.warmup = core::Duration::millis(100);
  cfg.transport = workload::Transport::kTcp;
  cfg.faults = plan;
  cfg.obs.mode = ObsConfig::Mode::kOn;
  cfg.obs.series_capacity = 32;
  cfg.obs.flight_recorder = 128;
  cfg.obs.flows = true;
  cfg.obs.flow_capacity = 512;  // small enough that eviction happens too
  return cfg;
}

ObsOutput run_one(const topology::Fleet& fleet, HostRole role,
                  const faults::FaultPlan* plan) {
  workload::RackSimulation rack{fleet, obs_config(fleet, role, plan)};
  const workload::RackSimResult result = rack.run();
  ObsOutput out;
  out.timeseries_json = timeseries_to_json(result.timeseries);
  out.tracepoints_jsonl = tracepoints_to_jsonl({result.tracepoints});
  out.tracepoint_total = result.tracepoints.total;
  out.flows_jsonl = flows_to_jsonl({result.flows});
  out.flows_total = result.flows.total;
  return out;
}

void expect_same(const ObsOutput& baseline, const ObsOutput& got, const char* what) {
  EXPECT_EQ(baseline.timeseries_json, got.timeseries_json) << what;
  EXPECT_EQ(baseline.tracepoint_total, got.tracepoint_total) << what;
  EXPECT_EQ(baseline.flows_total, got.flows_total) << what;
  EXPECT_EQ(baseline.flows_jsonl, got.flows_jsonl) << "flows JSONL diverged: " << what;
  if (baseline.tracepoints_jsonl != got.tracepoints_jsonl) {
    // The flight-recorder workflow: on a differential mismatch, dump both
    // sides' last-N tracepoints so the divergence point is greppable.
    std::fprintf(stderr, "obs differential mismatch (%s)\n--- baseline ---\n%s"
                         "--- divergent ---\n%s",
                 what, baseline.tracepoints_jsonl.c_str(),
                 got.tracepoints_jsonl.c_str());
    ADD_FAILURE() << "tracepoint JSONL diverged (" << what << "); dumps on stderr";
  }
}

TEST(ObsDifferential, BitIdenticalAcrossThreadCounts) {
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};

  auto run_batch = [&](int workers) {
    std::vector<std::function<ObsOutput()>> tasks;
    for (const HostRole role : {HostRole::kWeb, HostRole::kHadoop}) {
      tasks.push_back([&fleet, &heavy, role] { return run_one(fleet, role, &heavy); });
    }
    runtime::ThreadPool pool{workers};
    runtime::ParallelCaptureRunner runner{pool};
    return runner.run(tasks);
  };

  const std::vector<ObsOutput> baseline = run_batch(1);
  ASSERT_EQ(baseline.size(), 2u);
#if FBDCSIM_TELEMETRY_ENABLED
  for (const ObsOutput& out : baseline) {
    // The heavy profile must actually exercise the recorder, or this gate
    // compares empty strings forever.
    EXPECT_GT(out.tracepoint_total, 0) << "heavy profile produced no tracepoints";
    EXPECT_NE(out.timeseries_json, "{\"series\":{}}");
    // 200 ms of TCP closes transfers past the 512-record ring, so the gate
    // covers eviction-order determinism, not just the easy no-wrap case.
    EXPECT_GT(out.flows_total, 512) << "flows gate never exercised eviction";
    EXPECT_FALSE(out.flows_jsonl.empty()) << "flows gate compares empty strings";
  }
#endif
  for (const int workers : {2, 8}) {
    const std::vector<ObsOutput> got = run_batch(workers);
    ASSERT_EQ(got.size(), 2u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::string what =
          "workers=" + std::to_string(workers) + " capture=" + std::to_string(i);
      expect_same(baseline[i], got[i], what.c_str());
    }
  }
}

TEST(ObsDifferential, ObsOffProducesNoObservabilityOutput) {
  // The default: byte-identical behavior to pre-observability builds means
  // no series, no tracepoints, nothing to merge.
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  workload::RackSimConfig cfg = workload::default_rack_config(
      fleet, HostRole::kWeb, core::Duration::millis(100));
  cfg.transport = workload::Transport::kTcp;
  ASSERT_FALSE(cfg.obs.enabled());
  workload::RackSimulation rack{fleet, cfg};
  const workload::RackSimResult result = rack.run();
  EXPECT_TRUE(result.timeseries.empty());
  EXPECT_TRUE(result.tracepoints.records.empty());
  EXPECT_EQ(result.tracepoints.total, 0);
  EXPECT_TRUE(result.flows.records.empty());
  EXPECT_EQ(result.flows.total, 0);
}

TEST(ObsDifferential, FlowsLevelRequiresOptIn) {
  // FBDCSIM_OBS=on alone must not allocate a ledger: the flows level is its
  // own opt-in, so dump/probe users pay nothing for the per-flow machinery.
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  workload::RackSimConfig cfg = workload::default_rack_config(
      fleet, HostRole::kWeb, core::Duration::millis(100));
  cfg.transport = workload::Transport::kTcp;
  cfg.obs.mode = ObsConfig::Mode::kOn;
  ASSERT_FALSE(cfg.obs.flows);
  workload::RackSimulation rack{fleet, cfg};
  const workload::RackSimResult result = rack.run();
  EXPECT_TRUE(result.flows.records.empty());
  EXPECT_EQ(result.flows.total, 0);
}

}  // namespace
}  // namespace fbdcsim::telemetry
