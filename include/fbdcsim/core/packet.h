// Packet-header records: the unit captured by port mirroring and sampled by
// Fbflow. We model exactly the fields the paper's collection pipeline parses
// (addresses, ports, protocol, lengths, TCP flags, timestamp) — payloads are
// never captured, matching the header-only methodology of Section 3.3.
#pragma once

#include <cstdint>
#include <compare>
#include <functional>
#include <string>

#include "fbdcsim/core/addr.h"
#include "fbdcsim/core/ids.h"
#include "fbdcsim/core/time.h"
#include "fbdcsim/core/units.h"

namespace fbdcsim::core {

enum class Protocol : std::uint8_t {
  kTcp = 6,
  kUdp = 17,
};

/// TCP flag bits (subset the analyses need). `ece` is the ECN-Echo bit a
/// DCTCP receiver sets on ACKs of CE-marked segments; it stays false on
/// every pre-DCTCP path, so traces and fingerprints are unchanged unless
/// TcpParams::cc opts in.
struct TcpFlags {
  bool syn{false};
  bool ack{false};
  bool fin{false};
  bool rst{false};
  bool psh{false};
  bool ece{false};

  friend constexpr bool operator==(TcpFlags, TcpFlags) = default;
};

/// The classic transport 5-tuple identifying a flow.
struct FiveTuple {
  Ipv4Addr src_ip;
  Ipv4Addr dst_ip;
  Port src_port{0};
  Port dst_port{0};
  Protocol protocol{Protocol::kTcp};

  /// The tuple for traffic in the opposite direction.
  [[nodiscard]] constexpr FiveTuple reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, protocol};
  }

  friend constexpr auto operator<=>(const FiveTuple&, const FiveTuple&) = default;

  [[nodiscard]] std::string to_string() const;
};

/// Ethernet framing constants for the monitored hosts (10-Gbps, 1500-B MTU).
namespace wire {
inline constexpr std::int64_t kMtuBytes = 1500;               // IP MTU
inline constexpr std::int64_t kEthernetHeaderBytes = 14;      // no VLAN tag
inline constexpr std::int64_t kIpv4HeaderBytes = 20;
inline constexpr std::int64_t kTcpHeaderBytes = 20;           // no options
inline constexpr std::int64_t kUdpHeaderBytes = 8;
inline constexpr std::int64_t kMinFrameBytes = 64;
inline constexpr std::int64_t kTcpAckFrameBytes =
    kEthernetHeaderBytes + kIpv4HeaderBytes + kTcpHeaderBytes;  // 54, padded to 64 on wire
inline constexpr std::int64_t kMaxTcpPayloadBytes =
    kMtuBytes - kIpv4HeaderBytes - kTcpHeaderBytes;  // 1460 (MSS)

/// Frame length on the wire for a TCP segment carrying `payload` bytes.
[[nodiscard]] constexpr std::int64_t tcp_frame_bytes(std::int64_t payload) {
  const std::int64_t raw = kEthernetHeaderBytes + kIpv4HeaderBytes + kTcpHeaderBytes + payload;
  return raw < kMinFrameBytes ? kMinFrameBytes : raw;
}

/// TCP option bytes of a SACK option carrying one block: kind + length +
/// one (left, right) edge pair, NOP-padded to a 32-bit boundary (RFC 2018).
inline constexpr std::int64_t kTcpSackOptionBytes = 12;
}  // namespace wire

/// A captured packet header, as produced by the port-mirror tap or sampled by
/// an Fbflow agent. `frame_bytes` is the full on-wire frame length (what link
/// utilization and buffer occupancy are accounted in); `payload_bytes` is the
/// transport payload (what flow byte counts are accounted in).
///
/// Both counts are 32-bit, as in the FBTR trace format (trace_io.h): every
/// header describes one frame of at most an MTU, and sums over headers are
/// taken in 64 bits by their readers. That keeps the record at 40 bytes —
/// the trace holds one per captured packet. (CaptureBuffer::kRecordBytes,
/// 64, is the modelled collection host's per-record cost, not this size.)
struct PacketHeader {
  TimePoint timestamp;
  FiveTuple tuple;
  std::int32_t frame_bytes{0};
  std::int32_t payload_bytes{0};
  TcpFlags flags;

  [[nodiscard]] DataSize frame_size() const { return DataSize::bytes(frame_bytes); }
  [[nodiscard]] DataSize payload_size() const { return DataSize::bytes(payload_bytes); }
};

/// A packet in flight through the simulated rack: the captured header plus
/// the routing endpoints the switch fabric needs. This is the canonical
/// definition — `switching::SimPacket` and `services::SimPacket` are
/// aliases (historically each layer declared its own copy).
///
/// The trailing fields are flow-level transport metadata (see
/// transport/mux.h). They are zero for scripted traffic, are not part of
/// the captured PacketHeader, and never reach any analysis: `flow_tag`
/// identifies the owning TcpConnection (pool index + generation, so stale
/// in-flight packets from a recycled connection are ignored), and
/// `seq`/`ack` carry the byte-stream positions the TCP model reacts to.
/// IP-header ECN codepoint of an in-flight packet. Scripted traffic and
/// NewReno senders leave kNotEct; a DCTCP sender stamps data segments
/// kEct, and a congested switch rewrites kEct -> kCe on enqueue. Not part
/// of the captured PacketHeader (the collection pipeline parses neither
/// TOS byte), so marking never perturbs traces or analyses.
enum class Ecn : std::uint8_t {
  kNotEct = 0,  // sender did not opt in; switches never mark
  kEct = 1,     // ECN-capable transport
  kCe = 3,      // congestion experienced (marked by a switch)
};

struct SimPacket {
  PacketHeader header;
  HostId src;
  HostId dst;
  std::uint32_t flow_tag{0};
  Ecn ecn{Ecn::kNotEct};  // in flow_tag's padding: the packet stays 88 bytes
  std::uint64_t seq{0};  // first payload byte index of this segment
  std::uint64_t ack{0};  // cumulative ack (meaningful when header.flags.ack)
  // One SACK block [sack_lo, sack_hi) riding on an ACK (RFC 2018 first-block
  // rule: the range containing the most recently received out-of-order
  // segment). Zero — no block — for scripted traffic, all data segments,
  // and every ACK of a LossRecovery::kNewReno connection. Like seq/ack/ecn
  // these never reach the captured PacketHeader, though a block-carrying
  // ACK's frame_bytes does grow by wire::kTcpSackOptionBytes.
  std::int64_t sack_lo{0};
  std::int64_t sack_hi{0};
};

}  // namespace fbdcsim::core

namespace std {
template <>
struct hash<fbdcsim::core::FiveTuple> {
  size_t operator()(const fbdcsim::core::FiveTuple& t) const noexcept {
    // FNV-1a over the tuple fields: cheap, deterministic across runs.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(t.src_ip.value());
    mix(t.dst_ip.value());
    mix(static_cast<std::uint64_t>(t.src_port) << 32 | t.dst_port);
    mix(static_cast<std::uint64_t>(t.protocol));
    return static_cast<size_t>(h);
  }
};
}  // namespace std
