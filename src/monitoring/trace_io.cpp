#include "fbdcsim/monitoring/trace_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "fbdcsim/core/rng.h"  // splitmix64 for the checksum mix

namespace fbdcsim::monitoring {

namespace {

constexpr char kMagic[4] = {'F', 'B', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

/// On-disk record layout (little-endian, packed by explicit serialization —
/// we never write raw structs, so the format is ABI-independent).
struct WireRecord {
  std::int64_t timestamp_ns;
  std::uint32_t src_ip;
  std::uint32_t dst_ip;
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint8_t protocol;
  std::uint8_t flags;
  std::int32_t frame_bytes;
  std::int32_t payload_bytes;
};
/// Serialized size of one WireRecord (its fields, without struct padding).
constexpr std::uint64_t kWireRecordBytes = 8 + 4 + 4 + 2 + 2 + 1 + 1 + 4 + 4;

/// How many whole records the rest of `in` can hold; 0 when the stream
/// cannot tell (not seekable), so the caller grows as records arrive.
std::uint64_t records_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return 0;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return 0;
  return static_cast<std::uint64_t>(end - here) / kWireRecordBytes;
}

template <typename T>
void put(std::ostream& out, T value) {
  // The simulator only targets little-endian hosts; static_assert the
  // layout assumptions rather than byte-swapping.
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool get(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return in.good() || (in.eof() && in.gcount() == sizeof(T));
}

std::uint8_t pack_flags(core::TcpFlags flags) {
  // Bit 32 (ece) is zero on every pre-DCTCP trace, so old files round-trip
  // unchanged under the same format version.
  return static_cast<std::uint8_t>((flags.syn ? 1 : 0) | (flags.ack ? 2 : 0) |
                                   (flags.fin ? 4 : 0) | (flags.rst ? 8 : 0) |
                                   (flags.psh ? 16 : 0) | (flags.ece ? 32 : 0));
}

core::TcpFlags unpack_flags(std::uint8_t bits) {
  return core::TcpFlags{
      .syn = (bits & 1) != 0,
      .ack = (bits & 2) != 0,
      .fin = (bits & 4) != 0,
      .rst = (bits & 8) != 0,
      .psh = (bits & 16) != 0,
      .ece = (bits & 32) != 0,
  };
}

/// Order-sensitive checksum over the logical record fields.
std::uint64_t checksum_mix(std::uint64_t acc, const core::PacketHeader& pkt) {
  acc = core::splitmix64(acc ^ static_cast<std::uint64_t>(pkt.timestamp.count_nanos()));
  acc = core::splitmix64(acc ^ pkt.tuple.src_ip.value());
  acc = core::splitmix64(acc ^ pkt.tuple.dst_ip.value());
  acc = core::splitmix64(acc ^ (static_cast<std::uint64_t>(pkt.tuple.src_port) << 16 |
                                pkt.tuple.dst_port));
  acc = core::splitmix64(acc ^ static_cast<std::uint64_t>(pkt.frame_bytes) << 32 ^
                         static_cast<std::uint64_t>(pkt.payload_bytes));
  acc = core::splitmix64(acc ^ pack_flags(pkt.flags));
  return acc;
}

}  // namespace

bool write_trace(std::ostream& out, std::span<const core::PacketHeader> trace) {
  out.write(kMagic, sizeof(kMagic));
  put(out, kVersion);
  put(out, static_cast<std::uint64_t>(trace.size()));

  std::uint64_t checksum = 0;
  for (const core::PacketHeader& pkt : trace) {
    put(out, pkt.timestamp.count_nanos());
    put(out, pkt.tuple.src_ip.value());
    put(out, pkt.tuple.dst_ip.value());
    put(out, pkt.tuple.src_port);
    put(out, pkt.tuple.dst_port);
    put(out, static_cast<std::uint8_t>(pkt.tuple.protocol));
    put(out, pack_flags(pkt.flags));
    put(out, static_cast<std::int32_t>(pkt.frame_bytes));
    put(out, static_cast<std::int32_t>(pkt.payload_bytes));
    checksum = checksum_mix(checksum, pkt);
  }
  put(out, checksum);
  return out.good();
}

bool write_trace_file(const std::string& path, std::span<const core::PacketHeader> trace) {
  std::ofstream out{path, std::ios::binary};
  if (!out) return false;
  return write_trace(out, trace);
}

TraceReadResult read_trace(std::istream& in) {
  TraceReadResult result;
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    result.error = "not an FBTR trace (bad magic)";
    return result;
  }
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  if (!get(in, version) || version != kVersion) {
    result.error = "unsupported FBTR version";
    return result;
  }
  if (!get(in, count)) {
    result.error = "truncated header";
    return result;
  }

  // `count` comes from the file: reserve no more than the stream can hold,
  // so a corrupt header is a truncation error, not a huge allocation.
  result.trace.reserve(static_cast<std::size_t>(std::min(count, records_left(in))));
  std::uint64_t checksum = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t ts = 0;
    std::uint32_t src = 0, dst = 0;
    std::uint16_t sport = 0, dport = 0;
    std::uint8_t proto = 0, flags = 0;
    std::int32_t frame = 0, payload = 0;
    if (!get(in, ts) || !get(in, src) || !get(in, dst) || !get(in, sport) ||
        !get(in, dport) || !get(in, proto) || !get(in, flags) || !get(in, frame) ||
        !get(in, payload)) {
      result.error = "truncated record " + std::to_string(i);
      result.trace.clear();
      return result;
    }
    core::PacketHeader pkt;
    pkt.timestamp = core::TimePoint::from_nanos(ts);
    pkt.tuple = core::FiveTuple{core::Ipv4Addr{src}, core::Ipv4Addr{dst}, sport, dport,
                                static_cast<core::Protocol>(proto)};
    pkt.flags = unpack_flags(flags);
    pkt.frame_bytes = frame;
    pkt.payload_bytes = payload;
    checksum = checksum_mix(checksum, pkt);
    result.trace.push_back(pkt);
  }

  std::uint64_t stored = 0;
  if (!get(in, stored)) {
    result.error = "missing checksum";
    result.trace.clear();
    return result;
  }
  if (stored != checksum) {
    result.error = "checksum mismatch (corrupted trace)";
    result.trace.clear();
    return result;
  }
  result.ok = true;
  return result;
}

TraceReadResult read_trace_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    TraceReadResult result;
    result.error = "cannot open " + path;
    return result;
  }
  return read_trace(in);
}

bool write_trace_csv(std::ostream& out, std::span<const core::PacketHeader> trace) {
  out << "timestamp_ns,src,sport,dst,dport,proto,frame_bytes,payload_bytes,flags\n";
  for (const core::PacketHeader& pkt : trace) {
    out << pkt.timestamp.count_nanos() << ',' << pkt.tuple.src_ip.to_string() << ','
        << pkt.tuple.src_port << ',' << pkt.tuple.dst_ip.to_string() << ','
        << pkt.tuple.dst_port << ','
        << (pkt.tuple.protocol == core::Protocol::kTcp ? "tcp" : "udp") << ','
        << pkt.frame_bytes << ',' << pkt.payload_bytes << ',';
    if (pkt.flags.syn) out << 'S';
    if (pkt.flags.ack) out << 'A';
    if (pkt.flags.fin) out << 'F';
    if (pkt.flags.rst) out << 'R';
    if (pkt.flags.psh) out << 'P';
    if (pkt.flags.ece) out << 'E';
    out << '\n';
  }
  return out.good();
}

}  // namespace fbdcsim::monitoring
