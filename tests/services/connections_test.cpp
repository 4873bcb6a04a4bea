#include "fbdcsim/services/connections.h"

#include <gtest/gtest.h>

#include <vector>

#include "fbdcsim/services/traffic_model.h"
#include "fbdcsim/topology/standard_fleet.h"

namespace fbdcsim::services {
namespace {

using core::DataSize;
using core::Duration;
using core::TimePoint;

/// Records everything a model emits.
class RecordingSink : public TrafficSink {
 public:
  void host_send(const SimPacket& pkt) override { sent.push_back(pkt); }
  void host_receive(const SimPacket& pkt) override { received.push_back(pkt); }

  std::vector<SimPacket> sent;
  std::vector<SimPacket> received;
};

class WireTest : public ::testing::Test {
 protected:
  WireTest()
      : fleet_{topology::build_single_cluster_fleet(topology::ClusterType::kHadoop, 2, 4)},
        self_{fleet_.hosts().front().id},
        peer_{fleet_.hosts().back().id},
        table_{fleet_, self_},
        wire_{sim_, sink_, self_} {}

  topology::Fleet fleet_;
  core::HostId self_;
  core::HostId peer_;
  ConnectionTable table_;
  sim::Simulator sim_;
  RecordingSink sink_;
  Wire wire_;
};

TEST_F(WireTest, PooledConnectionIsStable) {
  const Connection a = table_.pooled(Dir::kOut, peer_, 80);
  const Connection b = table_.pooled(Dir::kOut, peer_, 80);
  EXPECT_EQ(a.tuple, b.tuple);
  EXPECT_EQ(a.peer, b.peer);
  EXPECT_TRUE(a.pooled);
  EXPECT_TRUE(b.pooled);
  EXPECT_EQ(table_.pooled_count(), 1u);
}

TEST_F(WireTest, PooledTableKeepsEveryTupleAcrossGrowth) {
  // 5,000 peers x 2 dirs x 2 service ports: 20,000 entries, so the flat
  // table doubles from its minimum capacity many times over.
  const topology::Fleet big =
      topology::build_single_cluster_fleet(topology::ClusterType::kHadoop, 160, 32);
  ASSERT_GT(big.hosts().size(), 5'000u);
  const core::HostId self = big.hosts().front().id;
  ConnectionTable table{big, self};
  struct Made {
    Dir dir;
    core::HostId peer;
    core::Port service_port;
    Connection conn;
  };
  std::vector<Made> made;
  for (std::uint32_t i = 1; i <= 5'000; ++i) {
    const core::HostId peer{i};
    for (const Dir dir : {Dir::kOut, Dir::kIn}) {
      for (const core::Port port : {core::Port{80}, core::Port{11211}}) {
        made.push_back({dir, peer, port, table.pooled(dir, peer, port)});
      }
    }
  }
  ASSERT_EQ(table.pooled_count(), made.size());

  std::vector<bool> seen(65536, false);
  for (std::size_t n = 0; n < made.size(); ++n) {
    const Made& m = made[n];
    const core::Port opener =
        m.dir == Dir::kOut ? m.conn.tuple.src_port : m.conn.tuple.dst_port;
    // Ports are handed out in creation order, as before the flat table.
    EXPECT_EQ(std::size_t{opener}, core::ports::kEphemeralBase + n);
    EXPECT_FALSE(seen[opener]) << "opener port " << opener << " reused";
    seen[opener] = true;

    const Connection again = table.pooled(m.dir, m.peer, m.service_port);
    ASSERT_EQ(again.tuple, m.conn.tuple) << "entry " << n;
    EXPECT_EQ(again.peer, m.peer);
    EXPECT_TRUE(again.pooled);
  }
  EXPECT_EQ(table.pooled_count(), made.size());
}

TEST_F(WireTest, PooledTupleOrientationIsSelfToPeer) {
  Connection& c = table_.pooled(Dir::kOut, peer_, 80);
  EXPECT_EQ(c.tuple.src_ip, fleet_.host(self_).addr);
  EXPECT_EQ(c.tuple.dst_ip, fleet_.host(peer_).addr);
  EXPECT_EQ(c.tuple.dst_port, 80);
  EXPECT_GE(c.tuple.src_port, core::ports::kEphemeralBase);
}

TEST_F(WireTest, EphemeralConnectionsGetFreshPorts) {
  const Connection a = table_.ephemeral(Dir::kOut, peer_, 80);
  const Connection b = table_.ephemeral(Dir::kOut, peer_, 80);
  EXPECT_NE(a.tuple.src_port, b.tuple.src_port);
  EXPECT_FALSE(a.pooled);
}

TEST_F(WireTest, EphemeralPortsWrapInsideRangeAndSkipPooledPorts) {
  // 80k ephemeral allocations run the counter more than twice around the
  // 32768-port range. Every port must stay in [kEphemeralBase, 65535], and
  // none may equal a port a pooled connection holds — pooled tuples stay
  // open for the whole run, so reissuing one would merge two connections.
  std::vector<bool> held(65536, false);
  const auto pool_more = [&](core::Port first_service_port) {
    for (core::Port p = first_service_port; p < first_service_port + 50; ++p) {
      held[table_.pooled(Dir::kOut, peer_, p).tuple.src_port] = true;
      held[table_.pooled(Dir::kIn, peer_, p).tuple.dst_port] = true;
    }
  };
  pool_more(1);
  for (int i = 0; i < 40'000; ++i) {
    // More pooled connections appear after the first wrap too.
    if (i == 20'000) pool_more(1'001);
    const core::Port out = table_.ephemeral(Dir::kOut, peer_, 80).tuple.src_port;
    const core::Port in = table_.ephemeral(Dir::kIn, peer_, 11211).tuple.dst_port;
    for (const core::Port port : {out, in}) {
      ASSERT_GE(port, core::ports::kEphemeralBase) << "allocation " << i;
      ASSERT_FALSE(held[port]) << "allocation " << i << " reissued pooled port " << port;
    }
  }
  EXPECT_EQ(table_.pooled_count(), 200u);
}

TEST_F(WireTest, InboundConnectionKeepsSelfToPeerOrientation) {
  Connection c = table_.ephemeral(Dir::kIn, peer_, 11211);
  EXPECT_EQ(c.tuple.src_ip, fleet_.host(self_).addr);
  EXPECT_EQ(c.tuple.src_port, 11211);  // well-known port on self side
  const Connection p = table_.pooled(Dir::kIn, peer_, 11211);
  EXPECT_EQ(p.tuple.src_ip, fleet_.host(self_).addr);
  EXPECT_EQ(p.tuple.src_port, 11211);
  const Connection again = table_.pooled(Dir::kIn, peer_, 11211);
  EXPECT_EQ(again.tuple, p.tuple);
  EXPECT_EQ(again.peer, p.peer);
  EXPECT_TRUE(again.pooled);
  EXPECT_EQ(table_.pooled_count(), 1u);
}

TEST_F(WireTest, SendSegmentsAtMss) {
  Connection& c = table_.pooled(Dir::kOut, peer_, 80);
  wire_.send(Dir::kOut, c, DataSize::bytes(3000), TimePoint::zero(), Duration::micros(1),
             /*ack=*/false);
  sim_.run();
  // 3000 B = 1460 + 1460 + 80.
  ASSERT_EQ(sink_.sent.size(), 3u);
  EXPECT_EQ(sink_.sent[0].header.payload_bytes, 1460);
  EXPECT_EQ(sink_.sent[1].header.payload_bytes, 1460);
  EXPECT_EQ(sink_.sent[2].header.payload_bytes, 80);
  EXPECT_FALSE(sink_.sent[0].header.flags.psh);
  EXPECT_TRUE(sink_.sent[2].header.flags.psh);
  // Byte conservation.
  std::int64_t total = 0;
  for (const auto& p : sink_.sent) total += p.header.payload_bytes;
  EXPECT_EQ(total, 3000);
}

TEST_F(WireTest, SendSynthesizesDelayedAcks) {
  Connection& c = table_.pooled(Dir::kOut, peer_, 80);
  wire_.send(Dir::kOut, c, DataSize::bytes(4 * 1460), TimePoint::zero());
  sim_.run();
  EXPECT_EQ(sink_.sent.size(), 4u);
  // Delayed ACK: one per two segments.
  ASSERT_EQ(sink_.received.size(), 2u);
  for (const auto& ack : sink_.received) {
    EXPECT_EQ(ack.header.payload_bytes, 0);
    EXPECT_TRUE(ack.header.flags.ack);
    EXPECT_EQ(ack.header.tuple, c.tuple.reversed());
    EXPECT_EQ(ack.header.frame_bytes, core::wire::kMinFrameBytes);
  }
}

TEST_F(WireTest, ReceiveAckSuppression) {
  Connection& c = table_.pooled(Dir::kOut, peer_, 80);
  wire_.send(Dir::kIn, c, DataSize::bytes(500), TimePoint::zero(), Duration::micros(1),
             /*ack=*/false);
  sim_.run();
  EXPECT_EQ(sink_.received.size(), 1u);
  EXPECT_TRUE(sink_.sent.empty());  // no standalone ACK
}

TEST_F(WireTest, OpenEmitsHandshake) {
  Connection c = table_.ephemeral(Dir::kOut, peer_, 80);
  const TimePoint done = wire_.open(Dir::kOut, c, TimePoint::zero(), Duration::micros(100));
  sim_.run();
  EXPECT_EQ(done, TimePoint::from_nanos(100'000));
  ASSERT_EQ(sink_.sent.size(), 2u);      // SYN + final ACK
  ASSERT_EQ(sink_.received.size(), 1u);  // SYN-ACK
  EXPECT_TRUE(sink_.sent[0].header.flags.syn);
  EXPECT_FALSE(sink_.sent[0].header.flags.ack);
  EXPECT_TRUE(sink_.received[0].header.flags.syn);
  EXPECT_TRUE(sink_.received[0].header.flags.ack);
  EXPECT_FALSE(sink_.sent[1].header.flags.syn);
}

TEST_F(WireTest, OpenInboundSynComesFromPeer) {
  Connection c = table_.ephemeral(Dir::kIn, peer_, 11211);
  wire_.open(Dir::kIn, c, TimePoint::zero());
  sim_.run();
  ASSERT_EQ(sink_.received.size(), 2u);  // SYN + final ACK from peer
  EXPECT_TRUE(sink_.received[0].header.flags.syn);
  EXPECT_FALSE(sink_.received[0].header.flags.ack);
  EXPECT_EQ(sink_.received[0].header.tuple.src_ip, fleet_.host(peer_).addr);
  ASSERT_EQ(sink_.sent.size(), 1u);  // SYN-ACK from self
  EXPECT_TRUE(sink_.sent[0].header.flags.syn);
  EXPECT_TRUE(sink_.sent[0].header.flags.ack);
}

/// What one Wire operation hands the sink, run alone on a fresh simulator:
/// `sent` went through host_send, `received` through host_receive.
struct Emitted {
  std::vector<SimPacket> sent;
  std::vector<SimPacket> received;
};

template <typename Op>
Emitted emitted_by(core::HostId self, Op op) {
  sim::Simulator sim;
  RecordingSink sink;
  Wire wire{sim, sink, self};
  op(wire);
  sim.run();
  return Emitted{std::move(sink.sent), std::move(sink.received)};
}

/// `in` is `out` seen from the other end, packet for packet: each tuple
/// passes through `mirror`, src and dst trade places, and timestamps, flags,
/// payload and frame bytes are equal.
template <typename Mirror>
void expect_mirrored(const std::vector<SimPacket>& out, const std::vector<SimPacket>& in,
                     Mirror mirror) {
  ASSERT_EQ(in.size(), out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const core::PacketHeader& o = out[i].header;
    const core::PacketHeader& n = in[i].header;
    EXPECT_EQ(n.timestamp, o.timestamp) << "packet " << i;
    EXPECT_EQ(n.tuple, mirror(o.tuple)) << "packet " << i;
    EXPECT_EQ(n.flags, o.flags) << "packet " << i;
    EXPECT_EQ(n.payload_bytes, o.payload_bytes) << "packet " << i;
    EXPECT_EQ(n.frame_bytes, o.frame_bytes) << "packet " << i;
    EXPECT_EQ(in[i].src, out[i].dst) << "packet " << i;
    EXPECT_EQ(in[i].dst, out[i].src) << "packet " << i;
  }
}

/// The sink side swaps too: what self sends in `out` arrives for self in
/// `in`, and the other way round.
template <typename Mirror>
void expect_mirrored(const Emitted& out, const Emitted& in, Mirror mirror) {
  ASSERT_FALSE(out.sent.empty());
  ASSERT_FALSE(out.received.empty());
  expect_mirrored(out.sent, in.received, mirror);
  expect_mirrored(out.received, in.sent, mirror);
}

TEST_F(WireTest, InDirectionMirrorsOutDirection) {
  const auto reversed = [](const core::FiveTuple& t) { return t.reversed(); };
  const TimePoint t0 = TimePoint::from_seconds(0.5);
  const DataSize bytes = DataSize::bytes(5 * 1460 + 100);
  const Duration gap = Duration::micros(3);
  const Duration rtt = Duration::micros(90);

  // On one connection the Dir::kIn form emits the Dir::kOut form's packets
  // with every tuple reversed.
  Connection c = table_.pooled(Dir::kOut, peer_, 80);
  for (const bool ack : {true, false}) {
    TimePoint out_done;
    TimePoint in_done;
    const Emitted out = emitted_by(self_, [&](Wire& w) {
      out_done = w.send(Dir::kOut, c, bytes, t0, gap, ack);
    });
    const Emitted in = emitted_by(self_, [&](Wire& w) {
      in_done = w.send(Dir::kIn, c, bytes, t0, gap, ack);
    });
    EXPECT_EQ(in_done, out_done);
    if (ack) {
      expect_mirrored(out, in, reversed);
    } else {
      EXPECT_TRUE(out.received.empty());
      EXPECT_TRUE(in.sent.empty());
      expect_mirrored(out.sent, in.received, reversed);
    }
  }
  {
    TimePoint out_done;
    TimePoint in_done;
    const Emitted out =
        emitted_by(self_, [&](Wire& w) { out_done = w.open(Dir::kOut, c, t0, rtt); });
    const Emitted in =
        emitted_by(self_, [&](Wire& w) { in_done = w.open(Dir::kIn, c, t0, rtt); });
    EXPECT_EQ(in_done, out_done);
    expect_mirrored(out, in, reversed);
  }

  // The table's Dir::kIn forms give the peer the fresh port and keep the
  // service port on self, so the tuple is the Dir::kOut form's with its
  // ports exchanged; their packets are the Dir::kOut form's with self and
  // peer exchanged.
  const auto endpoints_swapped = [](const core::FiveTuple& t) {
    return core::FiveTuple{t.dst_ip, t.src_ip, t.src_port, t.dst_port, t.protocol};
  };
  for (const bool pooled : {true, false}) {
    ConnectionTable out_table{fleet_, self_};
    ConnectionTable in_table{fleet_, self_};
    Connection out_conn = pooled ? out_table.pooled(Dir::kOut, peer_, 80)
                                       : out_table.ephemeral(Dir::kOut, peer_, 80);
    Connection in_conn = pooled ? in_table.pooled(Dir::kIn, peer_, 80)
                                      : in_table.ephemeral(Dir::kIn, peer_, 80);
    EXPECT_EQ(in_conn.pooled, pooled);
    EXPECT_EQ(out_conn.pooled, pooled);
    EXPECT_EQ(in_conn.peer, out_conn.peer);
    const core::FiveTuple& o = out_conn.tuple;
    EXPECT_EQ(in_conn.tuple,
              (core::FiveTuple{o.src_ip, o.dst_ip, o.dst_port, o.src_port, o.protocol}));
    const Emitted out = emitted_by(self_, [&](Wire& w) {
      w.send(Dir::kOut, out_conn, bytes, w.open(Dir::kOut, out_conn, t0, rtt), gap);
    });
    const Emitted in = emitted_by(self_, [&](Wire& w) {
      w.send(Dir::kIn, in_conn, bytes, w.open(Dir::kIn, in_conn, t0, rtt), gap);
    });
    expect_mirrored(out, in, endpoints_swapped);
  }
}

TEST_F(WireTest, CloseEmitsFinExchange) {
  Connection c = table_.ephemeral(Dir::kOut, peer_, 80);
  wire_.close(c, TimePoint::zero());
  sim_.run();
  ASSERT_EQ(sink_.sent.size(), 2u);
  ASSERT_EQ(sink_.received.size(), 1u);
  EXPECT_TRUE(sink_.sent[0].header.flags.fin);
  EXPECT_TRUE(sink_.received[0].header.flags.fin);
}

TEST_F(WireTest, TimestampsMatchSimClock) {
  Connection& c = table_.pooled(Dir::kOut, peer_, 80);
  wire_.send(Dir::kOut, c, DataSize::bytes(2 * 1460), TimePoint::from_seconds(1.0),
             Duration::micros(5), false);
  sim_.run();
  ASSERT_EQ(sink_.sent.size(), 2u);
  EXPECT_EQ(sink_.sent[0].header.timestamp, TimePoint::from_seconds(1.0));
  EXPECT_EQ(sink_.sent[1].header.timestamp,
            TimePoint::from_seconds(1.0) + Duration::micros(5));
}

}  // namespace
}  // namespace fbdcsim::services
