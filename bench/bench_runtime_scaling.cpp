// Runtime scaling, two sections:
//
//  1. Serial vs ShardedFleetRunner wall-clock for the Table 3 fleet
//     workload, with bit-identity of the resulting locality matrix
//     asserted for every worker count. Speedups are printed against both
//     the serial path (the gated figure) and the one-worker runner, whose
//     producer/consumer overlap already beats serial.
//  2. Hot-path event-engine storm: the same deterministic single-threaded
//     event storm on the test-only reference heap scheduler (the original
//     binary-heap/std::function engine, tests/support/reference_scheduler.h)
//     and sim::Simulator's bucketed calendar wheel, with checksums asserted
//     bit-identical and a >=1.5x events/sec gate on the bucketed engine.
//     Each engine's storm is compiled in its own translation unit
//     (engine_storm_reference.cpp, engine_storm_simulator.cpp), so the
//     optimizer treats both alike. Both rates land in the report's "extra"
//     JSON.
//
// Exits non-zero on any mismatch, a failed engine gate, or — on hardware
// with at least 4 cores — if 4 workers fail to reach a 2x speedup.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>

#include "common.h"
#include "engine_storm.h"
#include "fbdcsim/monitoring/fbflow.h"
#include "fbdcsim/runtime/sharded_fleet.h"
#include "fbdcsim/workload/fleet_flows.h"

using namespace fbdcsim;

namespace {

struct RunResult {
  double seconds{0.0};
  std::int64_t flows{0};
  double bytes{0.0};
  std::size_t samples{0};
  monitoring::ScubaTable::LocalityBytes locality{};
};

using Feed = std::function<void(const workload::FleetFlowGenerator::Visit&)>;

RunResult measure(const Feed& feed, monitoring::FbflowPipeline& fbflow) {
  RunResult r;
  std::int64_t flows = 0;
  double bytes = 0.0;
  const double t0 = bench::now_seconds();
  feed([&](const core::FlowRecord& flow) {
    fbflow.offer_flow(flow);
    bytes += static_cast<double>(flow.bytes.count_bytes());
    ++flows;
  });
  r.seconds = bench::now_seconds() - t0;
  r.flows = flows;
  r.bytes = bytes;
  r.samples = fbflow.scuba().size();
  r.locality = fbflow.scuba().locality_bytes(fbflow.sampling_rate());
  return r;
}

int compare(const RunResult& ref, const RunResult& got, int workers) {
  int mismatches = 0;
  if (got.flows != ref.flows) {
    std::printf("MISMATCH (%d workers): flow count %lld vs %lld\n", workers,
                static_cast<long long>(got.flows), static_cast<long long>(ref.flows));
    ++mismatches;
  }
  if (got.bytes != ref.bytes) {
    std::printf("MISMATCH (%d workers): byte total %.17g vs %.17g\n", workers,
                got.bytes, ref.bytes);
    ++mismatches;
  }
  if (got.samples != ref.samples) {
    std::printf("MISMATCH (%d workers): sampled headers %zu vs %zu\n", workers,
                got.samples, ref.samples);
    ++mismatches;
  }
  for (int l = 0; l < core::kNumLocalities; ++l) {
    if (got.locality.bytes[l] != ref.locality.bytes[l]) {
      std::printf("MISMATCH (%d workers): locality[%d] %.17g vs %.17g\n", workers, l,
                  got.locality.bytes[l], ref.locality.bytes[l]);
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main() {
  bench::BenchReport report{"runtime_scaling", 2015};
  bench::banner("Runtime scaling: serial vs sharded parallel fleet generation",
                "Section 3.3.1 methodology; runtime/ subsystem check", 2015);

  const topology::Fleet fleet = workload::build_fleet_experiment_fleet();
  workload::FleetGenConfig cfg;
  // The Table 3 workload at a shorter horizon: enough work for stable
  // timings, small enough that the serial baseline stays a few seconds.
  cfg.horizon = core::Duration::hours(6);
  cfg.epoch = core::Duration::minutes(30);
  cfg.seed = 2015;
  cfg.rate_scale = 0.005;
  const workload::FleetFlowGenerator gen{fleet, cfg};
  std::printf("fleet: %zu hosts; horizon: 6 h\n\n", fleet.num_hosts());

  // Serial reference: the plain FleetFlowGenerator::generate path.
  monitoring::FbflowPipeline serial_pipe{fleet, monitoring::kDefaultSamplingRate,
                                         core::RngStream{99}};
  const RunResult serial = measure(
      [&](const workload::FleetFlowGenerator::Visit& v) { gen.generate(v); }, serial_pipe);
  std::printf("%-10s  %10s  %10s  %10s  %12s  %14s\n", "config", "wall (s)", "vs serial",
              "vs w=1", "flows", "sampled hdrs");
  std::printf("%-10s  %10.3f  %10s  %10s  %12lld  %14zu\n", "serial", serial.seconds, "1.00x",
              "-", static_cast<long long>(serial.flows), serial.samples);

  int mismatches = 0;
  double speedup4 = 0.0;
  double speedup4_vs_w1 = 0.0;
  double w1_seconds = 0.0;
  for (const int workers : {1, 2, 4, 8}) {
    runtime::ThreadPool pool{workers};
    const runtime::ShardedFleetRunner runner{gen, pool};
    monitoring::FbflowPipeline pipe{fleet, monitoring::kDefaultSamplingRate,
                                    core::RngStream{99}};
    const RunResult r = measure(
        [&](const workload::FleetFlowGenerator::Visit& v) { runner.stream(v); }, pipe);
    if (workers == 1) w1_seconds = r.seconds;
    const double speedup = serial.seconds / r.seconds;
    const double vs_w1 = w1_seconds / r.seconds;
    if (workers == 4) {
      speedup4 = speedup;
      speedup4_vs_w1 = vs_w1;
    }
    std::printf("%-10s%2d  %8.3f  %9.2fx  %9.2fx  %12lld  %14zu\n", "workers=", workers,
                r.seconds, speedup, vs_w1, static_cast<long long>(r.flows), r.samples);
    mismatches += compare(serial, r, workers);
  }

  std::printf("\n");
  if (mismatches == 0) {
    std::printf("output equivalence: PASS — every worker count reproduced the serial "
                "locality matrix, flow count, and byte total bit-for-bit\n");
  } else {
    std::printf("output equivalence: FAIL — %d mismatches\n", mismatches);
  }

  report.add_extra("fleet_speedup4_vs_serial", speedup4);
  report.add_extra("fleet_speedup4_vs_workers1", speedup4_vs_w1);

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 4) {
    std::printf("speedup gate (>=2x on 4 workers, %u cores): %s (%.2fx)\n", hw,
                speedup4 >= 2.0 ? "PASS" : "FAIL", speedup4);
    if (speedup4 < 2.0) ++mismatches;
  } else {
    std::printf("speedup gate: skipped — only %u core(s) available, a >=2x speedup "
                "is not demonstrable on this machine (equivalence still checked)\n",
                hw);
  }

  // Section 2: the event-engine storm. Single-threaded by construction
  // (one Simulator), so the >=1.5x gate holds at FBDCSIM_THREADS=1 and is
  // unaffected by pool width.
  std::printf("\nevent-engine storm: reference heap engine vs bucketed scheduler\n");
  const bench::StormOutcome ref = bench::measure_reference_storm();
  const bench::StormOutcome buck = bench::measure_simulator_storm();
  const double ref_eps = static_cast<double>(ref.events) / ref.seconds;
  const double buck_eps = static_cast<double>(buck.events) / buck.seconds;
  const double engine_speedup = buck_eps / ref_eps;
  std::printf("%-10s  %10s  %14s  %14s  %10s\n", "engine", "wall (s)", "events",
              "events/sec", "checksum");
  std::printf("%-10s  %10.3f  %14llu  %14.0f  %10llx\n", "reference", ref.seconds,
              static_cast<unsigned long long>(ref.events), ref_eps,
              static_cast<unsigned long long>(ref.checksum));
  std::printf("%-10s  %10.3f  %14llu  %14.0f  %10llx\n", "bucketed", buck.seconds,
              static_cast<unsigned long long>(buck.events), buck_eps,
              static_cast<unsigned long long>(buck.checksum));
  if (buck.checksum != ref.checksum || buck.events != ref.events ||
      buck.pending != ref.pending) {
    std::printf("engine equivalence: FAIL — storm outcomes differ between engines\n");
    ++mismatches;
  } else {
    std::printf("engine equivalence: PASS — identical checksum, executed events, and "
                "pending events on both engines\n");
  }
  std::printf("engine speedup gate (>=1.5x events/sec): %s (%.2fx)\n",
              engine_speedup >= 1.5 ? "PASS" : "FAIL", engine_speedup);
  if (engine_speedup < 1.5) ++mismatches;
  report.add_extra("engine_reference_events_per_sec", ref_eps);
  report.add_extra("engine_bucketed_events_per_sec", buck_eps);
  report.add_extra("engine_speedup", engine_speedup);

  report.set_status(mismatches);
  return mismatches;
}
