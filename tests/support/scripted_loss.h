// Deterministic scripted-loss harness for the flow-level TCP engine: a
// loopback TrafficSink (standing in for the RSW, like mux_test's) whose
// drop decisions come from a per-segment, per-attempt script instead of a
// modulo counter or a fault plan. Drops are SILENT — no on_dropped
// notification — so the sender learns about them exactly the way it would
// about fabric loss: dupacks, SACK blocks, or the retransmission timer.
// The loss-scenario conformance suite builds every scenario (single hole,
// spaced holes, tail loss, burst loss, lost retransmission) on top of this
// one fixture, once per LossRecovery law.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "fbdcsim/core/ids.h"
#include "fbdcsim/core/packet.h"
#include "fbdcsim/core/time.h"
#include "fbdcsim/services/traffic_model.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/topology/entities.h"
#include "fbdcsim/transport/mux.h"
#include "fbdcsim/transport/params.h"
#include "fbdcsim/workload/presets.h"

namespace fbdcsim::tests {

/// Drop decision for one transmission attempt of one data segment.
/// `segment` is the MSS-aligned index (seq / mss); `attempt` counts
/// transmissions of that same seq, 1-based (attempt 1 is the original).
using ScriptedDrop = std::function<bool(std::int64_t segment, int attempt)>;

/// Loopback sink with scripted silent loss on the host's outbound data
/// frames (the app_send direction). ACKs and inbound frames are never
/// dropped: the scenarios script the data path and leave the feedback
/// channel clean so recovery-time bounds are exact.
class ScriptedLossSink final : public services::TrafficSink {
 public:
  void host_send(const core::SimPacket& packet) override { route(packet, true); }
  void host_receive(const core::SimPacket& packet) override { route(packet, false); }

  sim::Simulator* sim{nullptr};
  transport::TransportMux* mux{nullptr};
  core::Duration wire_delay = core::Duration::micros(1);
  std::int64_t mss{0};
  ScriptedDrop drop;
  std::int64_t target_bytes{0};  // completion is when delivery reaches this
  /// Optional flow ledger: scripted drops stay silent toward the mux but
  /// are recorded as FlowDropCause::kScripted, so the attribution tests can
  /// pin a known drop to the retransmission that repairs it.
  telemetry::FlowLedger* ledger{nullptr};

  std::int64_t dropped_frames{0};
  std::int64_t data_frames{0};
  core::TimePoint completion;  // zero until target_bytes delivered
  bool completed{false};

 private:
  void route(const core::SimPacket& packet, bool outbound) {
    if (outbound && packet.header.payload_bytes > 0) {
      ++data_frames;
      const int attempt = ++attempts_[packet.seq];
      if (drop && drop(packet.seq / mss, attempt)) {
        ++dropped_frames;
        if (ledger != nullptr) {
          ledger->record({.kind = telemetry::TransportEventKind::kDrop,
                          .tag = packet.flow_tag,
                          .t_ns = sim->now().count_nanos(),
                          .seq = static_cast<std::int64_t>(packet.seq),
                          .len = packet.header.payload_bytes,
                          .a = static_cast<std::int64_t>(telemetry::FlowDropCause::kScripted),
                          .b = -1});
        }
        return;  // silent: the sender only finds out via ACKs or the RTO
      }
    }
    const core::SimPacket copy = packet;
    sim->schedule_after(wire_delay, [this, copy] {
      mux->on_delivered(copy);
      if (!completed && target_bytes > 0 &&
          mux->stats().bytes_delivered >= target_bytes) {
        completed = true;
        completion = sim->now();
      }
    });
  }

  std::unordered_map<std::int64_t, int> attempts_;
};

struct ScenarioOutcome {
  transport::TransportMux::Stats stats;
  core::Duration completion;  // app-send start -> last byte delivered
  std::int64_t dropped_frames{0};
  bool completed{false};
};

/// Runs one scripted-loss scenario: `segments` MSS-sized segments pushed at
/// t0 over an intra-rack connection (reply_delay = stack turnaround only,
/// so RTT is microseconds and kMinRto = 200 ms dominates any timeout).
///
/// The congestion window is capped at `window_segments` (default 9): the
/// receiver's bounded reorder buffer holds kMaxOooRanges = 8 out-of-order
/// SEGMENTS (ranges are not coalesced on arrival), so keeping the flight
/// behind any hole within 8 segments means the sink's script is the ONLY
/// loss in the system and every retransmit count is exact. Wider windows
/// shed far-ahead segments at the receiver and turn scripted single-hole
/// runs into multi-loss recoveries.
inline ScenarioOutcome run_loss_scenario(transport::LossRecovery recovery,
                                         std::int64_t segments, ScriptedDrop drop,
                                         core::Duration horizon = core::Duration::seconds(10),
                                         int window_segments = 9,
                                         telemetry::FlowLedger* ledger = nullptr) {
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  sim::Simulator sim;
  ScriptedLossSink sink;
  transport::TcpParams params;
  params.recovery = recovery;
  params.max_cwnd = core::DataSize::bytes(window_segments * transport::kMssBytes);
  params.initial_window_segments = window_segments;
  transport::TransportMux mux{sim, fleet, sink, params, /*faults=*/nullptr};
  mux.set_observers(/*recorder=*/nullptr, ledger);
  sink.sim = &sim;
  sink.mux = &mux;
  sink.mss = transport::kMssBytes;
  sink.drop = std::move(drop);
  sink.target_bytes = segments * transport::kMssBytes;
  sink.ledger = ledger;

  const auto& hosts = fleet.rack(fleet.host(core::HostId{0}).rack).hosts;
  const core::HostId self = hosts[0];
  const core::HostId peer = hosts[1];
  const core::FiveTuple tuple{fleet.host(self).addr, fleet.host(peer).addr, 40'000,
                              11'211, core::Protocol::kTcp};
  const core::TimePoint t0 = core::TimePoint::zero() + core::Duration::micros(10);
  mux.app_send(tuple, self, peer, sink.target_bytes, t0, core::Duration::nanos(0));
  sim.run_until(core::TimePoint::zero() + horizon);

  ScenarioOutcome out;
  out.stats = mux.stats();
  out.completed = sink.completed;
  out.completion = sink.completed ? sink.completion - t0 : horizon;
  out.dropped_frames = sink.dropped_frames;
  return out;
}

}  // namespace fbdcsim::tests
