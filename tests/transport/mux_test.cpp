// TransportMux behavioral tests against a loopback TrafficSink.
//
// The loopback sink stands in for the RSW: every packet a half-stream
// emits is delivered back to the mux after a fixed wire delay (the switch
// calls on_delivered at egress in the real wiring), and the harness can
// drop every Nth data frame to emulate shared-buffer loss. This isolates
// the TCP machinery — handshakes, ACK clocking, fast retransmit, RTO,
// teardown, bytes conservation — from the service models and the switch.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fbdcsim/core/packet.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/services/traffic_model.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/topology/entities.h"
#include "fbdcsim/transport/mux.h"
#include "fbdcsim/workload/presets.h"

namespace fbdcsim::transport {
namespace {

using core::Duration;
using core::SimPacket;
using core::TimePoint;

/// Delivers every emitted packet back to the mux after `wire_delay`,
/// recording it; optionally drops every Nth data frame sent by the host
/// (mimicking a DT admission reject, which notifies via on_dropped and
/// never delivers).
class LoopbackSink final : public services::TrafficSink {
 public:
  void host_send(const SimPacket& packet) override {
    sent.push_back(packet);
    route(packet);
  }
  void host_receive(const SimPacket& packet) override {
    received.push_back(packet);
    route(packet);
  }

  sim::Simulator* sim{nullptr};
  TransportMux* mux{nullptr};
  Duration wire_delay = Duration::micros(1);
  std::int64_t drop_every{0};  // 0 = lossless
  std::vector<SimPacket> sent;      // host NIC -> RSW
  std::vector<SimPacket> received;  // RSW downlink -> host

 private:
  void route(const SimPacket& packet) {
    if (drop_every > 0 && packet.header.payload_bytes > 0 &&
        ++data_frames_ % drop_every == 0) {
      mux->on_dropped(/*port=*/0, packet);
      return;
    }
    const SimPacket copy = packet;
    sim->schedule_after(wire_delay, [this, copy] { mux->on_delivered(copy); });
  }

  std::int64_t data_frames_{0};
};

struct Harness {
  explicit Harness(const faults::FaultPlan* faults = nullptr)
      : fleet{workload::build_rack_experiment_fleet()},
        mux{sim, fleet, sink, TcpParams{}, faults} {
    sink.sim = &sim;
    sink.mux = &mux;
    // Two hosts of the same rack: zero beyond-RSW delay, fastest loops.
    const auto& hosts = fleet.rack(fleet.host(core::HostId{0}).rack).hosts;
    self = hosts[0];
    peer = hosts[1];
    tuple = core::FiveTuple{fleet.host(self).addr, fleet.host(peer).addr, 40'000, 11'211,
                            core::Protocol::kTcp};
  }

  void run(Duration horizon = Duration::seconds(5)) {
    sim.run_until(TimePoint::zero() + horizon);
  }

  // DemandSink calls on `tuple`, each passing the handle the last returned.
  void open(Dir dir, TimePoint at) { handle = mux.open(dir, handle, tuple, self, peer, at); }
  void send(Dir dir, std::int64_t bytes, TimePoint at) {
    handle = mux.app_send(dir, handle, tuple, self, peer, bytes, at, Duration::nanos(0));
  }
  void close(TimePoint at) { handle = mux.app_close(handle, tuple, self, peer, at); }

  /// The live connection carrying `tuple`, or null.
  [[nodiscard]] const TcpConnection* connection() const {
    const TcpConnection* found = nullptr;
    mux.for_each_connection([&](const TcpConnection& c) {
      if (c.tuple == tuple) found = &c;
    });
    return found;
  }

  [[nodiscard]] int count_sent(bool syn, bool fin, bool data) const {
    int n = 0;
    for (const SimPacket& p : sink.sent) {
      if (p.header.flags.syn == syn && p.header.flags.fin == fin &&
          (p.header.payload_bytes > 0) == data) {
        ++n;
      }
    }
    return n;
  }

  topology::Fleet fleet;
  sim::Simulator sim;
  LoopbackSink sink;
  TransportMux mux;
  core::HostId self, peer;
  core::FiveTuple tuple;
  ConnHandle handle;
};

TEST(TransportMux, HandshakeEmitsRealSynSynAckAck) {
  Harness h;
  h.open(Dir::kOut, TimePoint::zero() + Duration::micros(10));
  h.run();

  EXPECT_EQ(h.mux.stats().handshakes_completed, 1);
  EXPECT_EQ(h.count_sent(/*syn=*/true, /*fin=*/false, /*data=*/false), 1)
      << "exactly one SYN leaves the host";
  int syn_acks_in = 0;
  int pure_acks_out = 0;
  for (const SimPacket& p : h.sink.received) {
    if (p.header.flags.syn && p.header.flags.ack) ++syn_acks_in;
  }
  for (const SimPacket& p : h.sink.sent) {
    if (!p.header.flags.syn && p.header.flags.ack && p.header.payload_bytes == 0) {
      ++pure_acks_out;
    }
  }
  EXPECT_EQ(syn_acks_in, 1) << "the peer's SYN-ACK traverses the downlink";
  EXPECT_GE(pure_acks_out, 1) << "the final handshake ACK is a real packet";
  const TcpConnection* conn = h.connection();
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->state, ConnState::kEstablished);
}

TEST(TransportMux, InboundHandshakeCompletes) {
  Harness h;
  h.open(Dir::kIn, TimePoint::zero() + Duration::micros(10));
  h.run();
  EXPECT_EQ(h.mux.stats().handshakes_completed, 1);
  int syns_in = 0;
  for (const SimPacket& p : h.sink.received) {
    if (p.header.flags.syn && !p.header.flags.ack) ++syns_in;
  }
  EXPECT_EQ(syns_in, 1) << "the peer's SYN arrives through the downlink";
  EXPECT_EQ(h.count_sent(/*syn=*/true, /*fin=*/false, /*data=*/false), 1)
      << "self answers with a SYN-ACK (syn bit set on the sent frame)";
}

TEST(TransportMux, PooledConnectionsSkipTheHandshake) {
  Harness h;
  const std::int64_t bytes = 10 * 1460;
  h.send(Dir::kOut, bytes, TimePoint::zero() + Duration::micros(10));
  h.run();
  EXPECT_EQ(h.count_sent(/*syn=*/true, /*fin=*/false, /*data=*/false), 0)
      << "pooled connections' handshakes predate the run";
  EXPECT_EQ(h.mux.stats().handshakes_completed, 0);
  EXPECT_EQ(h.mux.stats().bytes_delivered, bytes);
}

TEST(TransportMux, BytesConservationLossless) {
  Harness h;
  const std::int64_t bytes = 1'000'000;
  h.send(Dir::kOut, bytes, TimePoint::zero() + Duration::micros(10));
  h.run();
  const TransportMux::Stats& s = h.mux.stats();
  EXPECT_EQ(s.bytes_demanded, bytes);
  EXPECT_EQ(s.bytes_delivered, bytes);
  EXPECT_EQ(s.retransmit_segments, 0) << "no loss, no retransmissions";
  EXPECT_EQ(s.rto_fired, 0);
  const std::int64_t mss = kMssBytes;
  EXPECT_EQ(s.segments_sent, (bytes + mss - 1) / mss) << "MSS segmentation exactly";
  // Every data frame is MSS-sized except possibly the last.
  for (const SimPacket& p : h.sink.sent) {
    if (p.header.payload_bytes > 0) {
      EXPECT_LE(p.header.payload_bytes, mss);
    }
  }
}

TEST(TransportMux, AppReceiveDrivesTheInboundHalf) {
  Harness h;
  const std::int64_t bytes = 500'000;
  h.send(Dir::kIn, bytes, TimePoint::zero() + Duration::micros(10));
  h.run();
  EXPECT_EQ(h.mux.stats().bytes_delivered, bytes);
  std::int64_t data_in = 0;
  int acks_out = 0;
  for (const SimPacket& p : h.sink.received) data_in += p.header.payload_bytes;
  for (const SimPacket& p : h.sink.sent) {
    if (p.header.payload_bytes == 0 && p.header.flags.ack) ++acks_out;
  }
  EXPECT_GE(data_in, bytes) << "the remote sender's segments enter via the downlink";
  EXPECT_GT(acks_out, 0) << "self acknowledges with real packets";
}

TEST(TransportMux, SwitchDropsTriggerRetransmissionAndRecovery) {
  Harness h;
  h.sink.drop_every = 13;
  const std::int64_t bytes = 2'000'000;
  h.send(Dir::kOut, bytes, TimePoint::zero() + Duration::micros(10));
  h.run(Duration::seconds(30));  // room for RTO-driven tail recovery
  const TransportMux::Stats& s = h.mux.stats();
  EXPECT_EQ(s.bytes_delivered, bytes) << "loss recovery must deliver everything";
  EXPECT_GT(s.retransmit_segments, 0);
  EXPECT_GT(s.switch_drop_notifications, 0);
  EXPECT_GT(s.fast_retransmits + s.rto_fired, 0)
      << "recovery happens via dupacks or timeout";
}

TEST(TransportMux, CloseDrainsThenFinExchangeReleasesTheConnection) {
  Harness h;
  const TimePoint t0 = TimePoint::zero() + Duration::micros(10);
  h.open(Dir::kOut, t0);
  h.send(Dir::kOut, 100'000, t0 + Duration::micros(50));
  h.close(t0 + Duration::micros(60));
  h.run();
  const TransportMux::Stats& s = h.mux.stats();
  EXPECT_EQ(s.bytes_delivered, 100'000);
  EXPECT_EQ(h.count_sent(/*syn=*/false, /*fin=*/true, /*data=*/false), 1)
      << "FIN only after the stream drains";
  EXPECT_EQ(s.connections_destroyed, 1);
  EXPECT_EQ(h.mux.live_connections(), 0);
  EXPECT_EQ(h.connection(), nullptr);
}

TEST(TransportMux, PathLossIsRecoveredAndCounted) {
  faults::FaultConfig cfg = faults::heavy_profile();
  cfg.path_loss_prob = 0.05;  // hot enough to hit within one transfer
  const faults::FaultPlan plan{cfg};
  Harness h{&plan};
  // A cross-cluster peer so packets traverse the lossy fabric.
  core::HostId remote = h.peer;
  for (std::uint32_t i = 0; i < h.fleet.num_hosts(); ++i) {
    const core::HostId cand{i};
    if (h.fleet.locality(h.self, cand) == core::Locality::kIntraDatacenter) {
      remote = cand;
      break;
    }
  }
  ASSERT_NE(remote, h.peer) << "fleet must contain a cross-cluster host";
  const core::FiveTuple tuple{h.fleet.host(h.self).addr, h.fleet.host(remote).addr,
                              40'001, 11'211, core::Protocol::kTcp};
  const std::int64_t bytes = 400'000;
  (void)h.mux.app_send(Dir::kOut, ConnHandle{}, tuple, h.self, remote, bytes,
                       TimePoint::zero() + Duration::micros(10), Duration::nanos(0));
  h.run(Duration::seconds(30));
  const TransportMux::Stats& s = h.mux.stats();
  EXPECT_EQ(s.bytes_delivered, bytes);
  EXPECT_GT(s.path_loss_drops, 0) << "the fault plan's loss decisions fired";
  EXPECT_GT(s.retransmit_segments, 0);
}

TEST(TransportMux, RunsAreDeterministic) {
  auto run_once = [] {
    Harness h;
    h.sink.drop_every = 17;
    const TimePoint t0 = TimePoint::zero() + Duration::micros(10);
    h.open(Dir::kOut, t0);
    h.send(Dir::kOut, 750'000, t0 + Duration::micros(40));
    h.send(Dir::kIn, 250'000, t0 + Duration::micros(45));
    h.run(Duration::seconds(30));
    std::uint64_t hash = h.sink.sent.size() * 1'000'003 + h.sink.received.size();
    for (const SimPacket& p : h.sink.sent) {
      hash = hash * 1'000'003 +
             static_cast<std::uint64_t>(p.header.timestamp.count_nanos()) +
             static_cast<std::uint64_t>(p.header.payload_bytes) + p.seq + p.ack;
    }
    return std::pair<std::uint64_t, std::int64_t>{hash, h.mux.stats().bytes_delivered};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first) << "identical packet streams across runs";
  EXPECT_EQ(a.second, b.second);
}

// A handle outlives its connection. Packets keep only the low byte of a
// slot's epoch in their tag, and the free-slot stack is LIFO, so after 256
// releases of one slot its next occupant carries the very tag the slot's
// first connection had. A send on the first handle must still create a
// fresh connection: the handle's full-width epoch tells the two apart.
TEST(MuxHandle, StaleHandleDoesNotAliasTheSlotsLaterOccupant) {
  Harness h;
  // Room for a handshake and a FIN exchange; 256 cycles stay under kMinRto,
  // so no handshake timer fires.
  const Duration cycle = Duration::micros(200);
  TimePoint t = TimePoint::zero() + Duration::micros(10);
  h.open(Dir::kOut, t);
  const ConnHandle first = h.handle;
  for (int i = 0; i < 256; ++i) {
    h.close(t + Duration::micros(20));
    t += cycle;
    h.sim.run_until(t);
    ASSERT_EQ(h.mux.live_connections(), 0) << "release " << i;
    h.open(Dir::kOut, t);  // the stale handle: a fresh connection in the same slot
  }
  const ConnHandle occupant = h.handle;
  ASSERT_EQ(occupant.tag, first.tag) << "the tag generation wrapped";
  ASSERT_NE(occupant.epoch, first.epoch);
  ASSERT_EQ(h.mux.stats().connections_created, 257);

  const std::int64_t bytes = 10 * kMssBytes;
  const ConnHandle fresh = h.mux.app_send(Dir::kOut, first, h.tuple, h.self, h.peer, bytes, t,
                                          Duration::nanos(0));
  EXPECT_EQ(h.mux.stats().connections_created, 258) << "the stale handle made a new connection";
  EXPECT_EQ(h.mux.live_connections(), 2);
  EXPECT_NE(fresh.tag, occupant.tag);
  h.sim.run_until(t + Duration::millis(1));
  EXPECT_EQ(h.mux.stats().bytes_delivered, bytes);
  int established = 0;
  h.mux.for_each_connection([&](const TcpConnection& c) {
    if (c.tag == occupant.tag) {
      EXPECT_EQ(c.out.demand, 0) << "the occupant got no demand";
    }
    established += c.state == ConnState::kEstablished ? 1 : 0;
  });
  EXPECT_EQ(established, 2);
}

}  // namespace
}  // namespace fbdcsim::transport
