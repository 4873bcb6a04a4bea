#include "fbdcsim/core/packet.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace fbdcsim::core {
namespace {

FiveTuple tuple_a() {
  return FiveTuple{Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{10, 0, 0, 2}, 32768, 80, Protocol::kTcp};
}

TEST(FiveTupleTest, ReversedSwapsEndpoints) {
  const FiveTuple t = tuple_a();
  const FiveTuple r = t.reversed();
  EXPECT_EQ(r.src_ip, t.dst_ip);
  EXPECT_EQ(r.dst_ip, t.src_ip);
  EXPECT_EQ(r.src_port, t.dst_port);
  EXPECT_EQ(r.dst_port, t.src_port);
  EXPECT_EQ(r.protocol, t.protocol);
  EXPECT_EQ(r.reversed(), t);
}

TEST(FiveTupleTest, EqualityAndHash) {
  std::unordered_set<std::size_t> hashes;
  const FiveTuple t = tuple_a();
  EXPECT_EQ(t, tuple_a());
  EXPECT_NE(t, t.reversed());
  hashes.insert(std::hash<FiveTuple>{}(t));
  hashes.insert(std::hash<FiveTuple>{}(t.reversed()));
  FiveTuple other = t;
  other.dst_port = 81;
  hashes.insert(std::hash<FiveTuple>{}(other));
  EXPECT_EQ(hashes.size(), 3u);
}

TEST(WireTest, TcpFrameSizes) {
  // Pure ACK: padded to the Ethernet minimum.
  EXPECT_EQ(wire::tcp_frame_bytes(0), wire::kMinFrameBytes);
  // Full MSS payload: exactly MTU + Ethernet header.
  EXPECT_EQ(wire::tcp_frame_bytes(wire::kMaxTcpPayloadBytes),
            wire::kMtuBytes + wire::kEthernetHeaderBytes);
  // Small payload: headers + payload.
  EXPECT_EQ(wire::tcp_frame_bytes(100), 54 + 100);
}

TEST(WireTest, MssIsConsistent) {
  EXPECT_EQ(wire::kMaxTcpPayloadBytes,
            wire::kMtuBytes - wire::kIpv4HeaderBytes - wire::kTcpHeaderBytes);
}

// The mirror trace holds one header per captured packet, and every switch
// queue node holds one SimPacket: pin both layouts.
static_assert(sizeof(PacketHeader) == 40);
static_assert(sizeof(SimPacket) <= 88);

TEST(PacketHeaderTest, SizeAccessors) {
  PacketHeader pkt;
  pkt.frame_bytes = 1514;
  pkt.payload_bytes = 1460;
  EXPECT_EQ(pkt.frame_size(), DataSize::bytes(1514));
  EXPECT_EQ(pkt.payload_size(), DataSize::bytes(1460));
}

TEST(FiveTupleTest, ToStringFormat) {
  EXPECT_EQ(tuple_a().to_string(), "10.0.0.1:32768->10.0.0.2:80/tcp");
}

}  // namespace
}  // namespace fbdcsim::core
