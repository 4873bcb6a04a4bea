// Connection management and TCP packetization for the service models.
//
// ConnectionTable hands out pooled (long-lived, stable 5-tuple) and
// ephemeral (SYN/FIN-delimited) connections, reproducing the paper's §5.1
// observation that most service traffic rides pooled connections while a
// steady rate of ephemeral flows produces the SYN-interarrival pattern of
// Figure 14. Wire segments transaction payloads into MTU-bounded frames
// with delayed ACKs in the reverse direction. Every operation takes the
// transport::Dir of the end that acts — kOut for self, kIn for the peer —
// and its replies travel the opposite way, so one code path serves both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fbdcsim/core/packet.h"
#include "fbdcsim/core/units.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/topology/entities.h"
#include "fbdcsim/transport/demand.h"

namespace fbdcsim::services {

using transport::Dir;

class TrafficSink;

/// One transport connection between the modelled host and a peer.
/// Invariant: `tuple` is always oriented self -> peer, regardless of which
/// side initiated the connection (connections the peer opened, Dir::kIn,
/// simply have the service port on the self side). `handle` names the
/// transport's connection in TCP mode: Wire stores back the one each
/// DemandSink call returns, and it stays unbound in scripted mode.
struct Connection {
  core::FiveTuple tuple;
  core::HostId peer;
  bool pooled{true};
  transport::ConnHandle handle;
};

/// Allocates connections for one modelled host. Ports are assigned
/// deterministically in turn from the ephemeral range [kEphemeralBase,
/// 65535], wrapping at its end; a port a pooled connection holds is never
/// handed out again, so no live pooled tuple is ever reissued.
///
/// The pool is one flat open-addressed array (power-of-two capacity,
/// Fibonacci hash of the pool key, linear probing, doubled before it is
/// more than 7/8 full), so a lookup is one probe in the common case.
/// pooled() returns a reference into that array, so the transport handle
/// Wire stores through it stays with the pooled connection. Entries move
/// when the array grows: a reference stays valid only until the next
/// pooled() call.
class ConnectionTable {
 public:
  ConnectionTable(const topology::Fleet& fleet, core::HostId self)
      : fleet_{&fleet}, self_{self} {}

  /// The pooled connection the `dir` end opened to the other end's
  /// `service_port` (kOut: self to peer:service_port; kIn: peer to
  /// self:service_port), created on first use. The opener holds a fresh
  /// ephemeral port; the tuple stays self -> peer per the Connection
  /// invariant. The reference is valid until the next pooled() call.
  [[nodiscard]] Connection& pooled(Dir dir, core::HostId peer, core::Port service_port);

  /// A fresh ephemeral connection (new ephemeral port each call), oriented
  /// like pooled(). Use with Wire::open in the same `dir`.
  [[nodiscard]] Connection ephemeral(Dir dir, core::HostId peer, core::Port service_port);

  [[nodiscard]] core::HostId self() const { return self_; }
  [[nodiscard]] std::size_t pooled_count() const { return pooled_count_; }

 private:
  /// One pool entry. `key` packs (dir, peer, service_port); kEmptyKey marks
  /// a free slot.
  struct Slot {
    std::uint64_t key;
    Connection conn;
  };
  /// Bits 48-62 of a real key are always 0, so no key is all ones.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr int kMinCapacityLog2 = 4;

  /// The slot holding `key`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const;
  /// Doubles the capacity and reinserts every entry.
  void grow();
  [[nodiscard]] core::FiveTuple make_tuple(Dir dir, core::HostId peer,
                                           core::Port service_port,
                                           core::Port opener_port) const;
  /// The next ephemeral port no pooled connection holds.
  [[nodiscard]] core::Port next_port();

  const topology::Fleet* fleet_;
  core::HostId self_;
  core::Port next_port_{core::ports::kEphemeralBase};
  std::vector<Slot> slots_ = std::vector<Slot>(std::size_t{1} << kMinCapacityLog2,
                                               Slot{kEmptyKey, {}});
  /// 64 - log2(capacity): the hash keeps the product's top bits.
  int shift_{64 - kMinCapacityLog2};
  std::size_t pooled_count_{0};
  /// Indexed by port - kEphemeralBase: true while a pooled connection holds it.
  std::vector<bool> pooled_ports_ =
      std::vector<bool>(65536 - core::ports::kEphemeralBase, false);
};

/// Emits the packet streams of application-level transactions over a
/// connection, handling MTU segmentation, delayed ACKs, handshakes and
/// teardown. Each operation runs in a Dir: its data (or SYN) travels in
/// `dir` — kOut leaves the modelled host through host_send, kIn arrives
/// from the network through host_receive — and the ACKs and handshake
/// replies travel the opposite way.
///
/// Two backends share this interface. When the sink exposes no transport
/// (scripted mode), Wire emits the pre-shaped packet timeline itself —
/// byte-identical to the historical behavior. When the sink runs a
/// transport::DemandSink (TCP mode), Wire hands the byte demands over and
/// the packet structure (segmentation, ACK clocking, retransmits) becomes
/// emergent; the returned TimePoints are then scripted-formula *estimates*
/// that keep the service models' transaction pacing unchanged. Every
/// operation takes the Connection by reference and, in TCP mode, stores
/// back the handle the DemandSink returns, so the next operation on the
/// same Connection reaches the same transport connection.
class Wire {
 public:
  /// Unbound until assigned a bound Wire (TrafficModel::start does).
  Wire() = default;
  Wire(sim::Simulator& sim, TrafficSink& sink, core::HostId self);

  /// The `dir` end sends `payload` bytes to the other end, starting at
  /// `start` with `gap` between segments. With `ack` the receiving end
  /// answers with delayed ACKs (one per two segments, and the last). Pass
  /// false when the reply piggybacks the ACK — the request leg of a
  /// request-response exchange, as real TCP does (this is what keeps the
  /// paper's packet-size medians from drowning in pure ACKs). Returns the
  /// time the last segment is sent.
  core::TimePoint send(Dir dir, Connection& conn, core::DataSize payload,
                       core::TimePoint start, core::Duration gap = core::Duration::micros(2),
                       bool ack = true);

  /// The `dir` end opens the connection with a three-way handshake (SYN,
  /// SYN-ACK back, final ACK) beginning at `start`; returns when the
  /// connection is usable.
  core::TimePoint open(Dir dir, Connection& conn, core::TimePoint start,
                       core::Duration rtt = core::Duration::micros(60));

  /// Emits FIN/ACK teardown initiated by self at `start`.
  void close(Connection& conn, core::TimePoint start,
             core::Duration rtt = core::Duration::micros(60));

 private:
  /// Schedules one packet of `conn` travelling in `dir` at `at`.
  void emit(Dir dir, const Connection& conn, core::TimePoint at, std::int64_t payload,
            core::TcpFlags flags);

  sim::Simulator* sim_{nullptr};
  TrafficSink* sink_{nullptr};
  transport::DemandSink* mux_{nullptr};  // null in scripted mode
  core::HostId self_;
};

}  // namespace fbdcsim::services
