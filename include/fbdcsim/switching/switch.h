// Output-queued shared-buffer switch model.
//
// Models what Section 6.3 measures: a top-of-rack switch whose egress ports
// share a common packet buffer under dynamic-threshold admission. Provides
// per-port SNMP-style counters (tx bytes/packets, egress drops) and supports
// the 10-microsecond buffer-occupancy sampling used for Figure 15.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "fbdcsim/core/arena.h"
#include "fbdcsim/core/ids.h"
#include "fbdcsim/core/packet.h"
#include "fbdcsim/core/time.h"
#include "fbdcsim/core/units.h"
#include "fbdcsim/sim/simulator.h"

namespace fbdcsim::faults {
class FaultPlan;
}  // namespace fbdcsim::faults

namespace fbdcsim::telemetry {
class TimeSeriesProbe;
}  // namespace fbdcsim::telemetry

namespace fbdcsim::switching {

/// A packet in flight through the simulated rack. The canonical definition
/// lives in core/packet.h so services and transport can share it without
/// depending on the switching layer.
using SimPacket = core::SimPacket;

/// Per-port cumulative counters, in the style of SNMP interface MIBs.
struct PortCounters {
  std::int64_t tx_packets{0};
  std::int64_t tx_bytes{0};
  std::int64_t enqueued_packets{0};
  std::int64_t dropped_packets{0};
  std::int64_t dropped_bytes{0};
  /// Total time packets spent queued before their first bit left (ns);
  /// queuing_delay_ns / tx_packets is the mean queuing delay.
  std::int64_t queuing_delay_ns{0};
  std::int64_t max_queuing_delay_ns{0};
  /// Packets rewritten ECT -> CE on enqueue (zero unless the config sets
  /// an ecn_threshold and a DCTCP sender stamped ECT).
  std::int64_t ecn_marked_packets{0};
};

struct SwitchConfig {
  std::size_t num_ports{0};
  /// Total shared packet buffer. Commodity ToR chips of the paper's era
  /// shipped ~12 MB of shared buffer (e.g. Trident II).
  core::DataSize buffer_total = core::DataSize::megabytes(12);
  /// Dynamic-threshold alpha: a packet is admitted to port q only if
  /// q's queue depth < alpha * (free buffer). Standard DT admission.
  double dt_alpha = 1.0;
  /// Egress capacity per port (uniform; override per port after creation).
  core::DataRate port_rate = core::DataRate::gigabits_per_sec(10);
  /// ECN marking threshold K on the SHARED buffer: an admitted ECT packet
  /// is rewritten to CE when the occupancy it lands in exceeds K
  /// (mark-on-enqueue, DCTCP-style step marking). Zero disables marking —
  /// the default, so every existing configuration is byte-identical.
  /// Non-ECT packets are never marked regardless of K.
  core::DataSize ecn_threshold = core::DataSize::bytes(0);
};

/// The marking decision, exposed as a pure function so the property suite
/// can exercise it without a switch: mark iff marking is enabled
/// (threshold > 0), the packet is ECN-capable, and the shared-buffer
/// occupancy AFTER admitting the packet exceeds the threshold. Monotone in
/// the threshold: raising K can only unmark packets, never mark new ones.
[[nodiscard]] constexpr bool ecn_should_mark(std::int64_t buffered_bytes_after,
                                             std::int64_t threshold_bytes, core::Ecn ecn) {
  return threshold_bytes > 0 && ecn != core::Ecn::kNotEct &&
         buffered_bytes_after > threshold_bytes;
}

/// Applies a fault plan's switch-level faults to a config before the switch
/// is built: the shared buffer shrinks by the plan's per-run factor (keyed
/// on `run_salt`, normally the simulation seed). Returns the factor applied
/// (1.0 when the plan is null, disabled, or spares this run); shrunken runs
/// bump the "switch.buffer_shrunk_runs" telemetry counter. Deterministic:
/// the same (plan seed, run_salt) always shrinks — or spares — the run.
double apply_fault_profile(SwitchConfig& config, const faults::FaultPlan* plan,
                           std::uint64_t run_salt);

/// The switch. Egress-port selection is the caller's job (the rack model
/// knows the topology); the switch models buffering, admission, drops, and
/// store-and-forward serialization, delivering each packet to the sink
/// callback when its last bit leaves the egress port.
class SharedBufferSwitch {
 public:
  /// Called when a packet completes transmission on `port`.
  using DeliverFn = std::function<void(std::size_t port, const SimPacket&)>;
  /// Called when DT admission rejects a packet at `port` (after the drop is
  /// counted), with the bytes queued on that port at the rejection. The
  /// switch's only observer: the rack records its drop tracepoint and
  /// notifies the transport model from here.
  using DropFn =
      std::function<void(std::size_t port, const SimPacket&, std::int64_t queued_bytes)>;

  SharedBufferSwitch(sim::Simulator& sim, SwitchConfig config, DeliverFn deliver);

  /// Installs (or clears) the drop-notification hook. Null by default: a
  /// run with nothing to notify never pays for the callback.
  void set_drop_hook(DropFn on_drop) { on_drop_ = std::move(on_drop); }

  /// Offers a packet to egress `port` at the current simulated time.
  /// Returns false (and counts a drop) if DT admission rejects it.
  bool enqueue(std::size_t port, const SimPacket& packet);

  /// Bytes currently buffered across all ports.
  [[nodiscard]] core::DataSize buffer_occupancy() const {
    return core::DataSize::bytes(buffered_bytes_);
  }
  /// Occupancy as a fraction of the configured shared buffer.
  [[nodiscard]] double buffer_occupancy_fraction() const {
    return static_cast<double>(buffered_bytes_) /
           static_cast<double>(config_.buffer_total.count_bytes());
  }

  [[nodiscard]] core::DataSize queue_depth(std::size_t port) const {
    return core::DataSize::bytes(ports_.at(port).queued_bytes);
  }

  [[nodiscard]] const PortCounters& counters(std::size_t port) const {
    return ports_.at(port).counters;
  }
  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }
  [[nodiscard]] const SwitchConfig& config() const { return config_; }

  void set_port_rate(std::size_t port, core::DataRate rate) { ports_.at(port).rate = rate; }

  /// Registers this switch's sim-time gauges on `probe`: shared-buffer
  /// occupancy, per-port queue depth, and cumulative tx bytes. The switch
  /// must outlive the probe's sampling.
  void register_probes(telemetry::TimeSeriesProbe& probe) const;

 private:
  struct Queued {
    SimPacket packet;
    core::TimePoint arrival;
  };
  struct Port {
    core::PoolQueue<Queued> queue;
    std::int64_t queued_bytes{0};
    bool transmitting{false};
    core::DataRate rate;
    PortCounters counters;
  };

  void start_transmission(std::size_t port_index);

  sim::Simulator* sim_;
  SwitchConfig config_;
  DeliverFn deliver_;
  DropFn on_drop_;
  // Packet queue nodes come from the switch's arena and recycle through the
  // pool free list, so steady-state enqueue/dequeue never calls malloc.
  // Declared before ports_ so queues are destroyed before their pool.
  core::Arena arena_;
  core::Pool<core::PoolQueue<Queued>::Node> node_pool_{arena_};
  std::vector<Port> ports_;
  std::int64_t buffered_bytes_{0};
};

/// Samples a switch's shared-buffer occupancy on a fixed period (default
/// 10 us, matching the paper's FBOSS counter collection) and aggregates
/// per-second median/maximum — the exact series of Figure 15a. Per-second
/// aggregation uses a fixed-resolution occupancy histogram so day-long runs
/// use constant memory.
class BufferOccupancySampler {
 public:
  struct SecondStats {
    std::int64_t second{0};     // seconds since run start
    double median_fraction{0};  // median of the second's samples
    double max_fraction{0};     // max of the second's samples
  };

  BufferOccupancySampler(sim::Simulator& sim, const SharedBufferSwitch& sw,
                         core::Duration period = core::Duration::micros(10));

  [[nodiscard]] std::span<const SecondStats> per_second() const { return seconds_; }
  [[nodiscard]] std::int64_t samples_taken() const { return samples_; }

  /// Flushes the in-progress second (call once after the run completes).
  void finish();

 private:
  static constexpr std::size_t kBins = 4096;

  void on_sample(core::TimePoint now);
  void flush_second();

  const SharedBufferSwitch* switch_;
  sim::PeriodicTimer timer_;
  std::vector<std::int64_t> histogram_ = std::vector<std::int64_t>(kBins, 0);
  std::int64_t in_second_samples_{0};
  double in_second_max_{0.0};
  std::int64_t current_second_{0};
  std::int64_t samples_{0};
  std::vector<SecondStats> seconds_;
};

}  // namespace fbdcsim::switching
