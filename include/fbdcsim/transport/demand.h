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

class DemandSink {
 public:
  virtual ~DemandSink() = default;

  /// The `dir` end initiates a connection at `start` (SYN / SYN-ACK / ACK
  /// emitted as real packets). Connections first seen through app_send are
  /// treated as long-lived pooled connections whose handshake predates the
  /// run — mirroring the scripted path, where only ephemeral connections
  /// emit SYNs.
  virtual void open(Dir dir, const core::FiveTuple& tuple, core::HostId self,
                    core::HostId peer, core::TimePoint start) = 0;

  /// The application on the `dir` end queues `bytes` for the other end at
  /// `start`. `pace_gap` is the application's write pacing (time per MSS of
  /// bytes it makes available — disk-bound Hadoop streams hand the socket
  /// data far slower than the NIC could drain it); emission is further
  /// limited by the congestion window and NIC serialization.
  virtual void app_send(Dir dir, const core::FiveTuple& tuple, core::HostId self,
                        core::HostId peer, std::int64_t bytes, core::TimePoint start,
                        core::Duration pace_gap) = 0;

  /// Self closes the connection at `start` (FIN exchange once both
  /// directions drain).
  virtual void app_close(const core::FiveTuple& tuple, core::HostId self,
                         core::HostId peer, core::TimePoint start) = 0;
};

}  // namespace fbdcsim::transport
