// Connection management and TCP packetization for the service models.
//
// ConnectionTable hands out pooled (long-lived, stable 5-tuple) and
// ephemeral (SYN/FIN-delimited) connections, reproducing the paper's §5.1
// observation that most service traffic rides pooled connections while a
// steady rate of ephemeral flows produces the SYN-interarrival pattern of
// Figure 14. Wire helpers segment transaction payloads into MTU-bounded
// frames with delayed ACKs in the reverse direction.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fbdcsim/core/packet.h"
#include "fbdcsim/core/rng.h"
#include "fbdcsim/core/units.h"
#include "fbdcsim/services/traffic_model.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/topology/entities.h"

namespace fbdcsim::services {

/// One transport connection between the modelled host and a peer.
/// Invariant: `tuple` is always oriented self -> peer, regardless of which
/// side initiated the connection (inbound-initiated connections simply have
/// the well-known port on the self side).
struct Connection {
  core::FiveTuple tuple;
  core::HostId peer;
  bool pooled{true};
};

/// Allocates connections for one modelled host. Ports are assigned
/// deterministically in turn from the ephemeral range [kEphemeralBase,
/// 65535], wrapping at its end; a port a pooled connection holds is never
/// handed out again, so no live pooled tuple is ever reissued.
class ConnectionTable {
 public:
  ConnectionTable(const topology::Fleet& fleet, core::HostId self)
      : fleet_{&fleet}, self_{self} {}

  /// The pooled connection to (peer, service port), created on first use.
  Connection& pooled(core::HostId peer, core::Port dst_port);

  /// A fresh ephemeral connection (new source port each call).
  [[nodiscard]] Connection ephemeral(core::HostId peer, core::Port dst_port);

  /// A fresh inbound-initiated ephemeral connection: the well-known port
  /// `self_port` is on the self side, the peer uses a fresh ephemeral port.
  /// (Tuple stays self -> peer per the Connection invariant; use with
  /// Wire::open_inbound, which emits the peer's SYN on the reverse path.)
  [[nodiscard]] Connection ephemeral_inbound(core::HostId peer, core::Port self_port);

  /// The pooled connection initiated by peer toward self, created on first
  /// use. Tuple orientation is self -> peer like every Connection.
  Connection& pooled_inbound(core::HostId peer, core::Port self_port);

  [[nodiscard]] core::HostId self() const { return self_; }
  [[nodiscard]] std::size_t pooled_count() const { return pool_.size(); }

 private:
  [[nodiscard]] core::FiveTuple make_tuple(core::HostId peer, core::Port dst_port,
                                           core::Port src_port) const;
  /// The next ephemeral port no pooled connection holds.
  [[nodiscard]] core::Port next_port();

  const topology::Fleet* fleet_;
  core::HostId self_;
  core::Port next_port_{core::ports::kEphemeralBase};
  std::unordered_map<std::uint64_t, Connection> pool_;
  /// Indexed by port - kEphemeralBase: true while a pooled connection holds it.
  std::vector<bool> pooled_ports_ =
      std::vector<bool>(65536 - core::ports::kEphemeralBase, false);
};

/// Emits the packet streams of application-level transactions over a
/// connection, handling MTU segmentation, delayed ACKs, handshakes and
/// teardown. "Outbound" means the modelled host transmits; "inbound" means
/// packets arrive from the network for the modelled host.
///
/// Two backends share this interface. When the sink exposes no transport
/// (scripted mode), Wire emits the pre-shaped packet timeline itself —
/// byte-identical to the historical behavior. When the sink runs a
/// transport::DemandSink (TCP mode), Wire hands the byte demands over and
/// the packet structure (segmentation, ACK clocking, retransmits) becomes
/// emergent; the returned TimePoints are then scripted-formula *estimates*
/// that keep the service models' transaction pacing unchanged.
class Wire {
 public:
  Wire(sim::Simulator& sim, TrafficSink& sink, core::HostId self)
      : sim_{&sim}, sink_{&sink}, mux_{sink.transport()}, self_{self} {}

  /// Sends `payload` bytes from self to the connection's peer, starting at
  /// `start` with `gap` between segments. Inbound delayed ACKs (one per two
  /// segments) are synthesized for peers outside the modelled rack when
  /// `ack_inbound` is true. Returns the time the last segment is sent.
  core::TimePoint send(const Connection& conn, core::DataSize payload, core::TimePoint start,
                       core::Duration gap = core::Duration::micros(2), bool ack_inbound = true);

  /// Synthesizes `payload` bytes arriving from the connection's peer
  /// starting at `start`; outbound delayed ACKs are sent in response when
  /// `ack_outbound` is true. Pass false for the request leg of a
  /// request-response exchange — the response piggybacks the ACK, as real
  /// TCP does (this is what keeps the paper's packet-size medians from
  /// drowning in pure ACKs).
  core::TimePoint receive(const Connection& conn, core::DataSize payload, core::TimePoint start,
                          core::Duration gap = core::Duration::micros(2),
                          bool ack_outbound = true);

  /// Emits an outbound three-way-handshake opening (SYN out, SYN-ACK in,
  /// ACK out) beginning at `start`; returns when the connection is usable.
  core::TimePoint open(const Connection& conn, core::TimePoint start,
                       core::Duration rtt = core::Duration::micros(60));

  /// Emits an inbound handshake (peer opens a connection to self).
  core::TimePoint open_inbound(const Connection& conn, core::TimePoint start,
                               core::Duration rtt = core::Duration::micros(60));

  /// Emits FIN/ACK teardown initiated by self at `start`.
  void close(const Connection& conn, core::TimePoint start,
             core::Duration rtt = core::Duration::micros(60));

 private:
  void emit_out(const core::FiveTuple& tuple, core::HostId peer, core::TimePoint at,
                std::int64_t payload, core::TcpFlags flags);
  void emit_in(const core::FiveTuple& tuple_from_peer, core::HostId peer, core::TimePoint at,
               std::int64_t payload, core::TcpFlags flags);

  sim::Simulator* sim_;
  TrafficSink* sink_;
  transport::DemandSink* mux_;  // null in scripted mode
  core::HostId self_;
};

}  // namespace fbdcsim::services
