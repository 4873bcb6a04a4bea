// Rack-level tests of the flow-level transport: the acceptance criteria of
// the transport/ subsystem.
//
//  - TransportScriptedGolden: RackSimConfig::transport = kScripted stays
//    byte-identical to the committed pre-transport golden fingerprints
//    (tests/golden/transport_scripted.golden.txt) — the TCP engine is a
//    strictly opt-in substitution.
//  - TCP mode emits real SYNs (Figure 14's interarrivals are computable
//    from the capture), keeps the paper's ACK/MSS packet-size bimodality
//    without any scripted size distribution on the path, and responds to
//    heavy fault profiles with actual retransmissions.
//  - Engine contract: heap-free events, bit-identical across thread-pool
//    widths.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "../support/golden_gate.h"
#include "../support/rack_fingerprint.h"
#include "fbdcsim/analysis/packet_stats.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/runtime/parallel_capture.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/transport/mux.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

namespace fbdcsim::workload {
namespace {

using core::HostRole;

RackSimConfig tcp_config(const topology::Fleet& fleet, HostRole role,
                         core::Duration capture) {
  RackSimConfig cfg = default_rack_config(fleet, role, capture);
  cfg.warmup = core::Duration::millis(100);
  cfg.transport = Transport::kTcp;
  return cfg;
}

TEST(TransportScriptedGolden, ScriptedPathIsByteIdenticalToPreTransportOutput) {
  // The golden file was generated by gen_transport_scripted on the tree
  // BEFORE transport/ landed. Matching fingerprints prove the scripted
  // path — the default — is untouched by the subsystem.
  tests::run_golden_gate("transport_scripted.golden.txt", [](RackSimConfig& cfg) {
    cfg.transport = Transport::kScripted;  // explicit: the differential's subject
  });
}

TEST(TransportRack, TcpModeEmitsRealSynsWithComputableInterarrivals) {
  const topology::Fleet fleet = build_rack_experiment_fleet();
  RackSimConfig cfg = tcp_config(fleet, HostRole::kWeb, core::Duration::millis(300));
  RackSimulation rack{fleet, cfg};
  const RackSimResult result = rack.run();
  ASSERT_GT(result.trace.size(), 0u);

  int syns = 0;
  for (const core::PacketHeader& p : result.trace) {
    if (p.flags.syn && !p.flags.ack) ++syns;
  }
  EXPECT_GT(syns, 10) << "ephemeral flows must open with real SYN packets";

  // Figure 14 is computable straight from the capture.
  const core::Ipv4Addr self = fleet.host(cfg.monitored_host).addr;
  const core::Cdf cdf = analysis::syn_interarrival_cdf(result.trace, self);
  EXPECT_GT(cdf.size(), 5u);

  ASSERT_NE(rack.transport_mux(), nullptr);
  EXPECT_GT(rack.transport_mux()->stats().handshakes_completed, 0);
}

TEST(TransportRack, TcpModePacketSizesAreBimodalAndEmergent) {
  // Hadoop is the paper's clearest bimodal workload (Figure 12): bulk
  // transfers segment to full MSS while the reverse path is pure ACKs. No
  // scripted size distribution feeds the TCP path — the split emerges from
  // MSS segmentation + ACK clocking. (Cache traffic stays mid-sized:
  // sub-MSS responses ride single small segments, as in the paper.)
  const topology::Fleet fleet = build_rack_experiment_fleet();
  RackSimConfig cfg = tcp_config(fleet, HostRole::kHadoop, core::Duration::millis(300));
  RackSimulation rack{fleet, cfg};
  const RackSimResult result = rack.run();
  ASSERT_GT(result.trace.size(), 1000u);

  const analysis::PacketSizeModes modes = analysis::packet_size_mode_split(result.trace);
  EXPECT_GT(modes.small_fraction, 0.10) << "ACK/control mode missing";
  EXPECT_GT(modes.full_fraction, 0.10) << "MSS mode missing";
  EXPECT_GT(modes.small_fraction + modes.full_fraction, 0.60)
      << "sizes must concentrate at the two TCP modes";
}

TEST(TransportRack, HeavyFaultsProduceRealRetransmissions) {
  const topology::Fleet fleet = build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  RackSimConfig cfg = tcp_config(fleet, HostRole::kHadoop, core::Duration::millis(300));
  cfg.faults = &heavy;
  RackSimulation rack{fleet, cfg};
  const RackSimResult result = rack.run();
  ASSERT_GT(result.trace.size(), 0u);

  ASSERT_NE(rack.transport_mux(), nullptr);
  const transport::TransportMux::Stats& s = rack.transport_mux()->stats();
  EXPECT_GT(s.retransmit_segments, 0)
      << "path loss / buffer pressure must surface as retransmissions";
  EXPECT_GT(s.path_loss_drops, 0) << "heavy profile's path_loss_prob must fire";
  EXPECT_GT(s.bytes_delivered, 0);

  // Fault-free same-seed run retransmits strictly less.
  RackSimConfig clean = tcp_config(fleet, HostRole::kHadoop, core::Duration::millis(300));
  RackSimulation clean_rack{fleet, clean};
  (void)clean_rack.run();
  ASSERT_NE(clean_rack.transport_mux(), nullptr);
  EXPECT_LT(clean_rack.transport_mux()->stats().retransmit_segments,
            s.retransmit_segments);
}

TEST(TransportRack, CcAndRecoveryLawsComposeInEveryCombination) {
  // The congestion-control axis (NewReno/DCTCP) and the loss-recovery axis
  // (NewReno/SACK) are independent TcpParams knobs; all four combinations
  // must run the heavy-fault Hadoop workload to completion, retransmit,
  // and engage (only) the machinery they opted into.
  const topology::Fleet fleet = build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  for (const auto cc :
       {transport::CongestionControl::kNewReno, transport::CongestionControl::kDctcp}) {
    for (const auto rec :
         {transport::LossRecovery::kNewReno, transport::LossRecovery::kSack}) {
      const std::string combo = std::string{transport::to_string(cc)} + "+" +
                                transport::to_string(rec);
      RackSimConfig cfg = tcp_config(fleet, HostRole::kHadoop, core::Duration::millis(300));
      cfg.tcp.cc = cc;
      cfg.tcp.recovery = rec;
      cfg.faults = &heavy;
      RackSimulation rack{fleet, cfg};
      const RackSimResult result = rack.run();
      ASSERT_GT(result.trace.size(), 0u) << combo;

      ASSERT_NE(rack.transport_mux(), nullptr) << combo;
      const transport::TransportMux::Stats& s = rack.transport_mux()->stats();
      EXPECT_GT(s.bytes_delivered, 0) << combo;
      EXPECT_GT(s.retransmit_segments, 0) << combo;
      if (rec == transport::LossRecovery::kSack) {
        EXPECT_GT(s.sack_blocks_recorded, 0) << combo;
        EXPECT_GT(s.sack_retransmits, 0) << combo;
      } else {
        EXPECT_EQ(s.sack_blocks_recorded, 0) << combo;
        EXPECT_EQ(s.sack_retransmits, 0) << combo;
      }
    }
  }
}

TEST(TransportRack, SackReducesTimeoutsUnderHeavyFaults) {
  // The variant's reason to exist: under the heavy fault profile the
  // scoreboard converts timer-driven recoveries into dupack-driven ones.
  // Cache-follower fan-out is the most RTO-prone preset, so the gap is
  // widest there. (The same contrast is asserted fleet-wide, with exact
  // totals, by the bench-smoke CI job on bench_ablation_transport.)
  const topology::Fleet fleet = build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  std::int64_t rto[2];
  int i = 0;
  for (const auto rec :
       {transport::LossRecovery::kNewReno, transport::LossRecovery::kSack}) {
    RackSimConfig cfg =
        tcp_config(fleet, HostRole::kCacheFollower, core::Duration::millis(300));
    cfg.tcp.recovery = rec;
    cfg.faults = &heavy;
    RackSimulation rack{fleet, cfg};
    (void)rack.run();
    ASSERT_NE(rack.transport_mux(), nullptr);
    rto[i++] = rack.transport_mux()->stats().rto_fired;
  }
  EXPECT_GT(rto[0], 0) << "heavy faults must fire timeouts under NewReno";
  EXPECT_LT(rto[1], rto[0]) << "the scoreboard must repair holes the blind law times out on";
}

#if FBDCSIM_TELEMETRY_ENABLED
TEST(TransportRack, TcpModeEventsAreHeapFree) {
  // PR-4 engine contract: every lambda the mux schedules fits
  // sim::InlineAction's inline storage.
  telemetry::MetricsRegistry::global().reset();
  const topology::Fleet fleet = build_rack_experiment_fleet();
  RackSimConfig cfg =
      tcp_config(fleet, HostRole::kCacheFollower, core::Duration::millis(300));
  RackSimulation rack{fleet, cfg};
  const RackSimResult result = rack.run();
  ASSERT_GT(result.events, 0u);

  const telemetry::Snapshot snap = telemetry::MetricsRegistry::global().snapshot();
  const auto* heap = snap.counter("sim.events_heap");
  ASSERT_NE(heap, nullptr);
  EXPECT_EQ(heap->value, 0) << "a transport lambda outgrew InlineAction's buffer";
}
#endif

#if FBDCSIM_TELEMETRY_ENABLED
/// The registry counters one rack run publishes, each with the layer count
/// it must equal: summed PortCounters, capture losses, or a
/// TransportMux::Stats field.
std::map<std::string, std::int64_t> layer_counts(const RackSimResult& r,
                                                 const transport::TransportMux* mux) {
  using switching::PortCounters;
  const auto sum = [&r](std::int64_t PortCounters::*field) {
    return r.uplink.*field + r.downlinks.*field;
  };
  std::map<std::string, std::int64_t> counts{
      {"switch.enqueued_packets", sum(&PortCounters::enqueued_packets)},
      {"switch.dropped_packets", sum(&PortCounters::dropped_packets)},
      {"switch.delivered_packets", sum(&PortCounters::tx_packets)},
      {"switch.tx_bytes", sum(&PortCounters::tx_bytes)},
      {"transport.ecn_marked", sum(&PortCounters::ecn_marked_packets)},
      {"capture.dropped", r.capture_dropped},
  };
  if (mux != nullptr) {
    const transport::TransportMux::Stats& s = mux->stats();
    counts.insert({
        {"transport.connections", s.connections_created},
        {"transport.handshakes", s.handshakes_completed},
        {"transport.handshake_failures", s.handshake_failures},
        {"transport.segments", s.segments_sent},
        {"transport.retransmits", s.retransmit_segments},
        {"transport.fast_retransmits", s.fast_retransmits},
        {"transport.rto_fired", s.rto_fired},
        {"transport.path_loss_drops", s.path_loss_drops},
        {"transport.switch_drops", s.switch_drop_notifications},
        {"transport.sack_blocks", s.sack_blocks_recorded},
        {"transport.sack_bytes", s.sack_bytes},
        {"transport.sack_retransmits", s.sack_retransmits},
        {"transport.sack_rescue", s.sack_rescue_retransmits},
        {"transport.ecn_echoed", s.ecn_echoed_acks},
        {"transport.dctcp_reductions", s.dctcp_cwnd_reductions},
    });
  }
  return counts;
}

TEST(RackRegistryCounters, EachCounterIsItsLayersOwnCount) {
  // One source of truth per rack counter: every switch/transport/capture
  // counter in the registry must equal the count its layer keeps, read
  // while the rack is still alive (the counters are published inside
  // run()). Successive captures in one process add up. gtest_discover_tests
  // runs each TEST in its own process, so the reset leaves no key behind
  // and the always-present keys are checked on a run where they are zero.
  telemetry::MetricsRegistry::global().reset();
  const topology::Fleet fleet = build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};

  RackSimConfig scripted =
      default_rack_config(fleet, HostRole::kWeb, core::Duration::millis(300));
  scripted.warmup = core::Duration::millis(100);
  RackSimConfig dctcp = tcp_config(fleet, HostRole::kWeb, core::Duration::millis(300));
  dctcp.tcp.cc = transport::CongestionControl::kDctcp;
  // Web load rarely queues 20 frames; a two-frame K makes marks fire.
  dctcp.rsw.ecn_threshold = core::DataSize::bytes(2 * 1500);
  RackSimConfig sack = tcp_config(fleet, HostRole::kHadoop, core::Duration::millis(300));
  sack.tcp.recovery = transport::LossRecovery::kSack;
  sack.faults = &heavy;

  std::map<std::string, std::int64_t> expected;
  std::int64_t events = 0;
  for (const auto& [label, cfg] : {std::pair{"scripted web", &scripted},
                                   std::pair{"dctcp web", &dctcp},
                                   std::pair{"sack heavy hadoop", &sack},
                                   std::pair{"sack heavy hadoop again", &sack}}) {
    RackSimulation rack{fleet, *cfg};
    const RackSimResult result = rack.run();
    for (const auto& [name, count] : layer_counts(result, rack.transport_mux())) {
      expected[name] += count;
    }
    events += static_cast<std::int64_t>(result.events);

    const telemetry::Snapshot snap = telemetry::MetricsRegistry::global().snapshot();
    for (const char* always : {"switch.enqueued_packets", "switch.dropped_packets",
                               "sim.events_heap", "sim.events_inline"}) {
      EXPECT_NE(snap.counter(always), nullptr) << label << ": " << always;
    }
    for (const auto& c : snap.counters) {
      const bool rack_counter = c.name.rfind("switch.", 0) == 0 ||
                                c.name.rfind("transport.", 0) == 0 ||
                                c.name.rfind("capture.", 0) == 0;
      // switch.buffer_shrunk_runs counts fault-shrunk racks, not packets.
      if (!rack_counter || c.name == "switch.buffer_shrunk_runs") continue;
      const auto it = expected.find(c.name);
      ASSERT_NE(it, expected.end()) << label << ": no layer count for " << c.name;
      EXPECT_EQ(c.value, it->second) << label << ": " << c.name;
    }
    for (const auto& [name, count] : expected) {
      if (count == 0) continue;
      const auto* c = snap.counter(name);
      ASSERT_NE(c, nullptr) << label << ": " << name << " unpublished";
      EXPECT_EQ(c->value, count) << label << ": " << name;
    }
    EXPECT_EQ(snap.counter("sim.events")->value, events) << label;
    EXPECT_EQ(snap.counter("sim.events_heap")->value, 0) << label;
    if (cfg == &scripted) {
      EXPECT_EQ(expected["switch.dropped_packets"], 0) << "zero-valued key case went vacuous";
    }
  }
  // Every mechanism the captures exercise reached the registry.
  for (const char* name : {"transport.ecn_marked", "transport.ecn_echoed",
                           "transport.dctcp_reductions", "transport.sack_blocks",
                           "transport.sack_retransmits", "transport.rto_fired",
                           "transport.path_loss_drops", "capture.dropped"}) {
    EXPECT_GT(expected[name], 0) << name;
  }
}
#endif

TEST(TransportRack, TcpModeIsBitIdenticalAcrossThreadCounts) {
  // The FBDCSIM_THREADS=1/2/8 criterion: per-capture fingerprints and the
  // merged Kind::kSim telemetry section must not depend on pool width.
  const topology::Fleet fleet = build_rack_experiment_fleet();
  auto run_batch = [&fleet](int workers) {
    std::vector<std::function<std::uint64_t()>> tasks;
    for (const HostRole role : {HostRole::kWeb, HostRole::kHadoop}) {
      tasks.push_back([&fleet, role] {
        RackSimConfig cfg = tcp_config(fleet, role, core::Duration::millis(200));
        RackSimulation rack{fleet, cfg};
        return tests::fingerprint(rack.run());
      });
    }
    telemetry::MetricsRegistry::global().reset();
    std::vector<std::uint64_t> fps;
    {
      runtime::ThreadPool pool{workers};
      runtime::ParallelCaptureRunner runner{pool};
      fps = runner.run(tasks);
    }
    return std::pair{fps, tests::sim_metrics_json()};
  };

  const auto baseline = run_batch(1);
  ASSERT_EQ(baseline.first.size(), 2u);
  for (const int workers : {2, 8}) {
    const auto got = run_batch(workers);
    EXPECT_EQ(got.first, baseline.first) << "workers=" << workers;
    EXPECT_EQ(got.second, baseline.second) << "workers=" << workers;
  }
}

TEST(TransportRack, DegenerateRackConfigsAreRejected) {
  const topology::Fleet fleet = build_rack_experiment_fleet();
  RackSimConfig cfg = default_rack_config(fleet, HostRole::kWeb, core::Duration::millis(100));
  cfg.monitored_host = core::HostId{};
  EXPECT_THROW((RackSimulation{fleet, cfg}), std::invalid_argument);
}

}  // namespace
}  // namespace fbdcsim::workload
