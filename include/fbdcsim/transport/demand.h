// The byte-demand interface between service models and the flow-level TCP
// transport. Header-only and dependent only on core/ so the services layer
// can consume it without linking (or even seeing) the transport library:
// services hand application-level byte demands to a DemandSink; the
// concrete TransportMux (transport/mux.h) turns them into SYN/ACK/MSS
// packet streams with real congestion dynamics.
//
// All tuples are oriented self -> peer, matching the services::Connection
// invariant; `self` is always a host of the modelled rack. Every operation
// runs in one Dir: kOut when self acts (opens, sends), kIn when the peer
// does. Replies — handshake answers and ACKs — travel the opposite Dir.
//
// The caller names its connection by a ConnHandle, not by the 5-tuple: every
// operation takes the handle the previous one returned (a default handle the
// first time) and returns the one to keep. A handle whose connection is gone
// — never created, or released since — makes the sink create a fresh one, so
// two caller connections never share transport state even when their tuples
// collide.
#pragma once

#include <cstdint>

#include "fbdcsim/core/ids.h"
#include "fbdcsim/core/packet.h"
#include "fbdcsim/core/time.h"

namespace fbdcsim::transport {

/// Which end of a connection acts: kOut is self (packets leave through
/// host_send), kIn is the peer (packets arrive through host_receive).
enum class Dir : std::uint8_t { kOut = 0, kIn = 1 };

[[nodiscard]] constexpr Dir opposite(Dir dir) { return dir == Dir::kOut ? Dir::kIn : Dir::kOut; }

/// The tuple a packet travelling in `dir` carries, given the self -> peer
/// connection tuple.
[[nodiscard]] constexpr core::FiveTuple oriented(const core::FiveTuple& tuple, Dir dir) {
  return dir == Dir::kOut ? tuple : tuple.reversed();
}

/// A DemandSink's name for one of its connections. `tag` is the flow tag the
/// connection's packets carry — (slot + 1) << 8 | low byte of `epoch`, 0 for
/// a handle not yet bound — and `epoch` counts the reuses of that slot at
/// full width, so a handle that outlives its connection never resolves to a
/// later occupant of the slot, however often the slot is recycled.
struct ConnHandle {
  std::uint32_t tag{0};
  std::uint32_t epoch{0};
};

class DemandSink {
 public:
  virtual ~DemandSink() = default;

  /// The `dir` end initiates a connection at `start` (SYN / SYN-ACK / ACK
  /// emitted as real packets). Connections first seen through app_send are
  /// treated as long-lived pooled connections whose handshake predates the
  /// run — mirroring the scripted path, where only ephemeral connections
  /// emit SYNs. Each operation returns the handle to pass to the next.
  [[nodiscard]] virtual ConnHandle open(Dir dir, ConnHandle handle,
                                        const core::FiveTuple& tuple, core::HostId self,
                                        core::HostId peer, core::TimePoint start) = 0;

  /// The application on the `dir` end queues `bytes` for the other end at
  /// `start`. `pace_gap` is the application's write pacing (time per MSS of
  /// bytes it makes available — disk-bound Hadoop streams hand the socket
  /// data far slower than the NIC could drain it); emission is further
  /// limited by the congestion window and NIC serialization.
  [[nodiscard]] virtual ConnHandle app_send(Dir dir, ConnHandle handle,
                                            const core::FiveTuple& tuple, core::HostId self,
                                            core::HostId peer, std::int64_t bytes,
                                            core::TimePoint start,
                                            core::Duration pace_gap) = 0;

  /// Self closes the connection at `start` (FIN exchange once both
  /// directions drain).
  [[nodiscard]] virtual ConnHandle app_close(ConnHandle handle, const core::FiveTuple& tuple,
                                             core::HostId self, core::HostId peer,
                                             core::TimePoint start) = 0;
};

}  // namespace fbdcsim::transport
