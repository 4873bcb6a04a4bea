#include "fbdcsim/services/connections.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fbdcsim/services/traffic_model.h"

namespace fbdcsim::services {

namespace {
using core::Duration;
using core::TimePoint;
using namespace core::wire;
}  // namespace

core::FiveTuple ConnectionTable::make_tuple(Dir dir, core::HostId peer,
                                            core::Port service_port,
                                            core::Port opener_port) const {
  const bool out = dir == Dir::kOut;
  return core::FiveTuple{
      fleet_->host(self_).addr,
      fleet_->host(peer).addr,
      out ? opener_port : service_port,
      out ? service_port : opener_port,
      core::Protocol::kTcp,
  };
}

core::Port ConnectionTable::next_port() {
  if (pooled_count_ >= pooled_ports_.size()) {
    throw std::length_error{"ConnectionTable: pooled connections hold every ephemeral port"};
  }
  while (true) {
    const core::Port port = next_port_;
    next_port_ =
        port == 65535 ? core::ports::kEphemeralBase : static_cast<core::Port>(port + 1);
    if (!pooled_ports_[port - core::ports::kEphemeralBase]) return port;
  }
}

std::size_t ConnectionTable::find_slot(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>((key * 0x9E37'79B9'7F4A'7C15ULL) >> shift_);
  while (slots_[i].key != key && slots_[i].key != kEmptyKey) i = (i + 1) & mask;
  return i;
}

void ConnectionTable::grow() {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slots_.size() * 2, Slot{kEmptyKey, {}}));
  --shift_;
  for (const Slot& s : old) {
    if (s.key != kEmptyKey) slots_[find_slot(s.key)] = s;
  }
}

Connection& ConnectionTable::pooled(Dir dir, core::HostId peer, core::Port service_port) {
  const std::uint64_t key = (dir == Dir::kIn ? 0x8000'0000'0000'0000ULL : 0) |
                            (static_cast<std::uint64_t>(peer.value()) << 16) | service_port;
  std::size_t i = find_slot(key);
  if (slots_[i].key == key) return slots_[i].conn;
  if ((pooled_count_ + 1) * 8 > slots_.size() * 7) {
    grow();
    i = find_slot(key);
  }
  const core::Port opener_port = next_port();
  pooled_ports_[opener_port - core::ports::kEphemeralBase] = true;
  slots_[i] =
      Slot{key, Connection{make_tuple(dir, peer, service_port, opener_port), peer, true, {}}};
  ++pooled_count_;
  return slots_[i].conn;
}

Connection ConnectionTable::ephemeral(Dir dir, core::HostId peer, core::Port service_port) {
  return Connection{make_tuple(dir, peer, service_port, next_port()), peer, false, {}};
}

Wire::Wire(sim::Simulator& sim, TrafficSink& sink, core::HostId self)
    : sim_{&sim}, sink_{&sink}, mux_{sink.transport()}, self_{self} {}

void Wire::emit(Dir dir, const Connection& conn, TimePoint at, std::int64_t payload,
                core::TcpFlags flags) {
  const core::FiveTuple tuple = transport::oriented(conn.tuple, dir);
  const core::HostId peer = conn.peer;
  sim_->schedule_at(at, [this, dir, tuple, peer, payload, flags] {
    SimPacket pkt;
    pkt.header.timestamp = sim_->now();
    pkt.header.tuple = tuple;
    pkt.header.payload_bytes = static_cast<std::int32_t>(payload);  // at most one MSS
    pkt.header.frame_bytes = static_cast<std::int32_t>(tcp_frame_bytes(payload));
    pkt.header.flags = flags;
    if (dir == Dir::kOut) {
      pkt.src = self_;
      pkt.dst = peer;
      sink_->host_send(pkt);
    } else {
      pkt.src = peer;
      pkt.dst = self_;
      sink_->host_receive(pkt);
    }
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

TimePoint Wire::send(Dir dir, Connection& conn, core::DataSize payload,
                     TimePoint start, Duration gap, bool ack) {
  if (mux_ != nullptr) {
    conn.handle = mux_->app_send(dir, conn.handle, conn.tuple, self_, conn.peer,
                                 payload.count_bytes(), start, gap);
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
    emit(dir, conn, at, seg, flags);
    ++segments;
    // Delayed ACK: the receiver acknowledges every second segment (and the last).
    if (ack && (segments % 2 == 0 || remaining == 0)) {
      emit(transport::opposite(dir), conn, at + ack_delay, 0, core::TcpFlags{.ack = true});
    }
    if (remaining > 0) at += gap;
  }
  return at;
}

TimePoint Wire::open(Dir dir, Connection& conn, TimePoint start, Duration rtt) {
  if (mux_ != nullptr) {
    conn.handle = mux_->open(dir, conn.handle, conn.tuple, self_, conn.peer, start);
    return start + rtt;
  }
  emit(dir, conn, start, 0, core::TcpFlags{.syn = true});
  emit(transport::opposite(dir), conn, start + rtt / 2, 0,
       core::TcpFlags{.syn = true, .ack = true});
  emit(dir, conn, start + rtt, 0, core::TcpFlags{.ack = true});
  return start + rtt;
}

void Wire::close(Connection& conn, TimePoint start, Duration rtt) {
  if (mux_ != nullptr) {
    conn.handle = mux_->app_close(conn.handle, conn.tuple, self_, conn.peer, start);
    return;
  }
  emit(Dir::kOut, conn, start, 0, core::TcpFlags{.ack = true, .fin = true});
  emit(Dir::kIn, conn, start + rtt / 2, 0, core::TcpFlags{.ack = true, .fin = true});
  emit(Dir::kOut, conn, start + rtt, 0, core::TcpFlags{.ack = true});
}

}  // namespace fbdcsim::services
