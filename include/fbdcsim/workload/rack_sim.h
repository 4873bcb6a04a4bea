// Rack-level packet simulation: the synthetic analogue of the paper's
// port-mirroring deployments (Section 3.3.2).
//
// Instantiates the per-role traffic model for every host of one rack, wires
// them into a shared-buffer RSW (per-host downlink ports plus four ECMP
// uplink ports), mirrors the monitored host's — or the whole rack's —
// bidirectional traffic into a CaptureBuffer, and optionally samples the
// switch buffer at 10-us granularity. The result of a run is exactly what
// the paper's collection servers spool to storage: a timestamped
// packet-header trace plus switch counters.
//
// Each RackSimulation owns one single-threaded sim::Simulator, so a run's
// output is a pure function of its config: identical across processes and
// FBDCSIM_THREADS settings (DESIGN.md §6/§7), and pinned by the committed
// goldens under tests/golden/.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "fbdcsim/core/pod_vector.h"
#include "fbdcsim/core/rng.h"
#include "fbdcsim/monitoring/capture.h"
#include "fbdcsim/services/backend.h"
#include "fbdcsim/services/params.h"
#include "fbdcsim/services/traffic_model.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/switching/switch.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/telemetry/obs.h"
#include "fbdcsim/telemetry/timeseries.h"
#include "fbdcsim/telemetry/tracepoint.h"
#include "fbdcsim/topology/entities.h"
#include "fbdcsim/transport/params.h"

namespace fbdcsim::faults {
class FaultPlan;
}  // namespace fbdcsim::faults

namespace fbdcsim::transport {
class TransportMux;
}  // namespace fbdcsim::transport

namespace fbdcsim::workload {

/// Transport backend selection for the service models' traffic.
enum class Transport : std::uint8_t {
  /// Services emit pre-shaped packet timelines directly (the historical
  /// behavior; byte-identical traces to every pre-transport release).
  kScripted,
  /// Services queue byte demands into a flow-level TCP engine
  /// (transport::TransportMux): handshakes, MSS segmentation, ACK
  /// clocking, fast retransmit and RTO recovery all emerge from real
  /// switch deliveries/drops and the fault plan's path-loss decisions.
  kTcp,
};

/// CSW-facing RSW ports: the paper's 4-post rack switch has one uplink to
/// each of its cluster's four CSWs.
inline constexpr int kRackUplinkPorts = 4;

struct RackSimConfig {
  /// The host whose traffic is captured. Required.
  core::HostId monitored_host;
  /// Mirror every host in the rack (the paper does this for Web racks,
  /// whose utilization is low enough to mirror a whole rack losslessly).
  bool mirror_whole_rack = false;
  /// Traffic generated before the capture window opens, so connection
  /// pools and Hadoop phases reach steady state.
  core::Duration warmup = core::Duration::seconds(2);
  /// Length of the mirrored capture.
  core::Duration capture = core::Duration::seconds(60);
  /// RSW configuration (buffer size, DT alpha).
  switching::SwitchConfig rsw;
  /// Enable the 10-us buffer occupancy sampler (Figure 15).
  bool sample_buffer = false;
  /// Collection-host memory for the capture (bounds trace length).
  std::int64_t capture_memory_bytes = 8LL * 1024 * 1024 * 1024;
  std::uint64_t seed = 1;
  services::ServiceMix mix;
  /// Rate multiplier applied to rack neighbours that are NOT mirrored.
  /// Their traffic only matters for switch-buffer pressure, so analyses of
  /// the mirrored host's trace are unaffected; keep at 1.0 for the buffer
  /// experiments (Figure 15), lower it to speed up trace-only experiments.
  /// 0 silences the neighbours' traffic: scale_rates() scales every request
  /// rate, and the processes derived from them follow. Only Hadoop's
  /// shuffle streams, a count rather than a rate, keep sending.
  double background_rate_scale = 1.0;
  /// Transport backend. kScripted preserves byte-identical traces with
  /// every pre-transport release; kTcp makes packet-scale structure
  /// emergent (SYN interarrivals, ACK/MSS size bimodality, retransmits).
  Transport transport = Transport::kScripted;
  /// Flow-level TCP tuning, used only when `transport == kTcp`.
  transport::TcpParams tcp;
  /// Sim-time observability (DESIGN.md §11). Off by default: runs stay
  /// byte-identical to pre-observability releases. When enabled (and
  /// telemetry is compiled in), a TimeSeriesProbe samples switch/transport
  /// gauges every telemetry::kProbePeriod and a flight recorder retains
  /// the last N tracepoints; both surface in RackSimResult, and
  /// Mode::kDump also prints the recorder to stderr after the run.
  telemetry::ObsConfig obs;
  /// Optional fault schedule (must outlive the simulation). When set and
  /// enabled: the RSW shared buffer may start shrunken, failed uplinks
  /// leave the ECMP set, degraded uplinks run at reduced rate, and the
  /// mirror drops frames under buffer pressure (counted in
  /// capture_dropped / capture_injected_dropped). Null is the zero-cost
  /// opt-out: the run is bit-identical to a fault-free one.
  const faults::FaultPlan* faults = nullptr;
};

struct RackSimResult {
  /// The mirrored packet-header trace, in timestamp order, capture window
  /// only (timestamps are absolute simulation time). The capture buffer's
  /// own storage, moved out by spool().
  core::PodVector<core::PacketHeader> trace;
  /// Capture losses: buffer overflow plus fault-injected mirror drops
  /// (zero for fault-free runs; the paper's RSWs mirror losslessly).
  std::int64_t capture_dropped{0};
  /// The fault-injected subset of capture_dropped.
  std::int64_t capture_injected_dropped{0};
  /// Per-second buffer occupancy stats, when sampling was enabled.
  std::vector<switching::BufferOccupancySampler::SecondStats> buffer_seconds;
  /// Aggregate uplink counters over the whole run (all uplink ports).
  switching::PortCounters uplink;
  /// Aggregate downlink (host-port) counters.
  switching::PortCounters downlinks;
  /// Total simulation events executed (performance observability).
  std::uint64_t events{0};
  core::TimePoint capture_start;
  core::TimePoint capture_end;
  /// Sim-time observability output (empty unless config.obs is enabled and
  /// telemetry is active): the probe's downsampled series, sorted by name,
  /// and the flight recorder's retained tracepoints.
  std::vector<telemetry::SeriesSnapshot> timeseries;
  telemetry::TracePointDump tracepoints;
  /// Per-flow lifecycle records (empty unless FBDCSIM_OBS=flows and
  /// transport == kTcp): closed transfers oldest-first, with causal drop
  /// attribution for every retransmission (DESIGN.md §14).
  telemetry::FlowLedgerDump flows;
};

/// Runs one rack-level packet simulation. The fleet must outlive the run.
class RackSimulation : public services::TrafficSink {
 public:
  RackSimulation(const topology::Fleet& fleet, RackSimConfig config);
  ~RackSimulation() override;

  RackSimulation(const RackSimulation&) = delete;
  RackSimulation& operator=(const RackSimulation&) = delete;

  /// Runs the capture, then publishes the rack layers' counts to the
  /// telemetry registry (DESIGN.md §7).
  [[nodiscard]] RackSimResult run();

  // TrafficSink interface (used by the service models).
  void host_send(const services::SimPacket& packet) override;
  void host_receive(const services::SimPacket& packet) override;
  transport::DemandSink* transport() override;

  /// The flow-level TCP engine (null in scripted mode). Exposed so tests
  /// and benches can read transport stats after a run.
  [[nodiscard]] const transport::TransportMux* transport_mux() const {
    return transport_.get();
  }
  /// The rack switch, for reading per-port counters after a run. Ports
  /// [0, hosts in the rack) are host downlinks, the rest uplinks.
  [[nodiscard]] const switching::SharedBufferSwitch& rack_switch() const { return *rsw_; }
  /// The RSW port facing `host` (its Host::rack_slot), or nullopt when
  /// `host` is not a member of this rack.
  [[nodiscard]] std::optional<std::size_t> downlink_port(core::HostId host) const;

 private:
  [[nodiscard]] std::size_t egress_port_for(const services::SimPacket& packet) const;
  void observe(const core::PacketHeader& header);

  const topology::Fleet* fleet_;
  RackSimConfig config_;
  services::ServiceMix background_mix_;
  core::RackId rack_;

  sim::Simulator sim_;
  std::unique_ptr<switching::SharedBufferSwitch> rsw_;
  /// Flow-level TCP engine; null in scripted mode. Constructed before the
  /// models so Wire can pick it up via TrafficSink::transport().
  std::unique_ptr<transport::TransportMux> transport_;
  std::unique_ptr<switching::BufferOccupancySampler> sampler_;
  /// Observability state (null unless config_.obs opted in): the flight
  /// recorder exists from construction (fault epochs record at t=0), the
  /// probe timer only during run().
  std::unique_ptr<telemetry::TracePointLog> tracepoints_;
  std::unique_ptr<telemetry::TimeSeriesProbe> probe_;
  /// Per-flow lifecycle ledger (null unless config_.obs.flows opted in and
  /// the transport is kTcp — scripted packets carry no transport lifecycle).
  std::unique_ptr<telemetry::FlowLedger> flow_ledger_;
  std::unique_ptr<sim::PeriodicTimer> probe_timer_;
  monitoring::CaptureBuffer capture_buffer_;
  std::unique_ptr<monitoring::PortMirror> mirror_;
  std::vector<std::unique_ptr<services::TrafficModel>> models_;

  /// Port map: ports [0, hosts) are host downlinks (rack position order);
  /// ports [hosts, hosts + uplinks) are CSW uplinks.
  std::size_t num_host_ports_{0};
  /// Uplink port indices still in the ECMP set after fault evaluation
  /// (all uplinks when fault-free or when every uplink failed).
  std::vector<std::size_t> live_uplinks_;
  bool faulted_{false};
  core::TimePoint capture_start_;
  bool capturing_{false};
};

/// Multiplies every rate-valued field of the mix by `factor` — used by the
/// diurnal Figure 15 bench and load sweeps.
[[nodiscard]] services::ServiceMix scale_rates(const services::ServiceMix& mix, double factor);

}  // namespace fbdcsim::workload
