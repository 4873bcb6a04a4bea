#include "fbdcsim/services/connections.h"

#include <algorithm>
#include <stdexcept>

namespace fbdcsim::services {

namespace {
using core::Duration;
using core::TimePoint;
using namespace core::wire;
}  // namespace

core::FiveTuple ConnectionTable::make_tuple(core::HostId peer, core::Port dst_port,
                                            core::Port src_port) const {
  return core::FiveTuple{
      fleet_->host(self_).addr,
      fleet_->host(peer).addr,
      src_port,
      dst_port,
      core::Protocol::kTcp,
  };
}

core::Port ConnectionTable::next_port() {
  if (pool_.size() >= pooled_ports_.size()) {
    throw std::length_error{"ConnectionTable: pooled connections hold every ephemeral port"};
  }
  while (true) {
    const core::Port port = next_port_;
    next_port_ =
        port == 65535 ? core::ports::kEphemeralBase : static_cast<core::Port>(port + 1);
    if (!pooled_ports_[port - core::ports::kEphemeralBase]) return port;
  }
}

Connection& ConnectionTable::pooled(core::HostId peer, core::Port dst_port) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(peer.value()) << 16) | dst_port;
  auto it = pool_.find(key);
  if (it == pool_.end()) {
    const core::Port src = next_port();
    pooled_ports_[src - core::ports::kEphemeralBase] = true;
    it = pool_.emplace(key, Connection{make_tuple(peer, dst_port, src), peer, true}).first;
  }
  return it->second;
}

Connection ConnectionTable::ephemeral(core::HostId peer, core::Port dst_port) {
  const core::Port src = next_port();
  return Connection{make_tuple(peer, dst_port, src), peer, false};
}

Connection ConnectionTable::ephemeral_inbound(core::HostId peer, core::Port self_port) {
  const core::Port peer_port = next_port();  // peer's ephemeral source port
  // Self -> peer orientation: well-known port on self, ephemeral on peer.
  return Connection{make_tuple(peer, peer_port, self_port), peer, false};
}

Connection& ConnectionTable::pooled_inbound(core::HostId peer, core::Port self_port) {
  const std::uint64_t key = 0x8000'0000'0000'0000ULL |
                            (static_cast<std::uint64_t>(peer.value()) << 16) | self_port;
  auto it = pool_.find(key);
  if (it == pool_.end()) {
    const core::Port peer_port = next_port();
    pooled_ports_[peer_port - core::ports::kEphemeralBase] = true;
    it = pool_.emplace(key, Connection{make_tuple(peer, peer_port, self_port), peer, true})
             .first;
  }
  return it->second;
}

void Wire::emit_out(const core::FiveTuple& tuple, core::HostId peer, TimePoint at,
                    std::int64_t payload, core::TcpFlags flags) {
  sim_->schedule_at(at, [this, tuple, peer, payload, flags] {
    SimPacket pkt;
    pkt.header.timestamp = sim_->now();
    pkt.header.tuple = tuple;
    pkt.header.payload_bytes = payload;
    pkt.header.frame_bytes = tcp_frame_bytes(payload);
    pkt.header.flags = flags;
    pkt.src = self_;
    pkt.dst = peer;
    sink_->host_send(pkt);
  });
}

void Wire::emit_in(const core::FiveTuple& tuple_from_peer, core::HostId peer, TimePoint at,
                   std::int64_t payload, core::TcpFlags flags) {
  sim_->schedule_at(at, [this, tuple_from_peer, peer, payload, flags] {
    SimPacket pkt;
    pkt.header.timestamp = sim_->now();
    pkt.header.tuple = tuple_from_peer;
    pkt.header.payload_bytes = payload;
    pkt.header.frame_bytes = tcp_frame_bytes(payload);
    pkt.header.flags = flags;
    pkt.src = peer;
    pkt.dst = self_;
    sink_->host_receive(pkt);
  });
}

namespace {
/// Scripted-formula completion estimate: segments at `gap` spacing. Used as
/// the return value in TCP mode so transaction pacing in the service models
/// is independent of the transport backend.
TimePoint scripted_last_segment(TimePoint start, std::int64_t bytes, Duration gap) {
  const std::int64_t nseg =
      std::max<std::int64_t>(1, (bytes + kMaxTcpPayloadBytes - 1) / kMaxTcpPayloadBytes);
  return start + gap * (nseg - 1);
}
}  // namespace

TimePoint Wire::send(const Connection& conn, core::DataSize payload, TimePoint start,
                     Duration gap, bool ack_inbound) {
  if (mux_ != nullptr) {
    mux_->app_send(conn.tuple, self_, conn.peer, payload.count_bytes(), start, gap);
    return scripted_last_segment(start, payload.count_bytes(), gap);
  }
  std::int64_t remaining = payload.count_bytes();
  TimePoint at = start;
  int segments = 0;
  const Duration ack_delay = Duration::micros(80);
  while (remaining > 0) {
    const std::int64_t seg = std::min<std::int64_t>(remaining, kMaxTcpPayloadBytes);
    remaining -= seg;
    const core::TcpFlags flags{.ack = true, .psh = remaining == 0};
    emit_out(conn.tuple, conn.peer, at, seg, flags);
    ++segments;
    // Delayed ACK: peer acknowledges every second segment (and the last).
    if (ack_inbound && (segments % 2 == 0 || remaining == 0)) {
      emit_in(conn.tuple.reversed(), conn.peer, at + ack_delay, 0, core::TcpFlags{.ack = true});
    }
    if (remaining > 0) at += gap;
  }
  return at;
}

TimePoint Wire::receive(const Connection& conn, core::DataSize payload, TimePoint start,
                        Duration gap, bool ack_outbound) {
  if (mux_ != nullptr) {
    mux_->app_receive(conn.tuple, self_, conn.peer, payload.count_bytes(), start, gap);
    return scripted_last_segment(start, payload.count_bytes(), gap);
  }
  std::int64_t remaining = payload.count_bytes();
  TimePoint at = start;
  int segments = 0;
  const Duration ack_delay = Duration::micros(80);
  const core::FiveTuple from_peer = conn.tuple.reversed();
  while (remaining > 0) {
    const std::int64_t seg = std::min<std::int64_t>(remaining, kMaxTcpPayloadBytes);
    remaining -= seg;
    const core::TcpFlags flags{.ack = true, .psh = remaining == 0};
    emit_in(from_peer, conn.peer, at, seg, flags);
    ++segments;
    if (ack_outbound && (segments % 2 == 0 || remaining == 0)) {
      emit_out(conn.tuple, conn.peer, at + ack_delay, 0, core::TcpFlags{.ack = true});
    }
    if (remaining > 0) at += gap;
  }
  return at;
}

TimePoint Wire::open(const Connection& conn, TimePoint start, Duration rtt) {
  if (mux_ != nullptr) {
    mux_->open(conn.tuple, self_, conn.peer, start);
    return start + rtt;
  }
  emit_out(conn.tuple, conn.peer, start, 0, core::TcpFlags{.syn = true});
  emit_in(conn.tuple.reversed(), conn.peer, start + rtt / 2, 0,
          core::TcpFlags{.syn = true, .ack = true});
  emit_out(conn.tuple, conn.peer, start + rtt, 0, core::TcpFlags{.ack = true});
  return start + rtt;
}

TimePoint Wire::open_inbound(const Connection& conn, TimePoint start, Duration rtt) {
  if (mux_ != nullptr) {
    mux_->open_inbound(conn.tuple, self_, conn.peer, start);
    return start + rtt;
  }
  // The peer initiates: its SYN travels on the reverse (peer -> self) path.
  emit_in(conn.tuple.reversed(), conn.peer, start, 0, core::TcpFlags{.syn = true});
  emit_out(conn.tuple, conn.peer, start + rtt / 2, 0, core::TcpFlags{.syn = true, .ack = true});
  emit_in(conn.tuple.reversed(), conn.peer, start + rtt, 0, core::TcpFlags{.ack = true});
  return start + rtt;
}

void Wire::close(const Connection& conn, TimePoint start, Duration rtt) {
  if (mux_ != nullptr) {
    mux_->app_close(conn.tuple, self_, conn.peer, start);
    return;
  }
  emit_out(conn.tuple, conn.peer, start, 0, core::TcpFlags{.ack = true, .fin = true});
  emit_in(conn.tuple.reversed(), conn.peer, start + rtt / 2, 0,
          core::TcpFlags{.ack = true, .fin = true});
  emit_out(conn.tuple, conn.peer, start + rtt, 0, core::TcpFlags{.ack = true});
}

}  // namespace fbdcsim::services
