// Property suite for the pure congestion-control laws in transport/tcp.h.
// These are the functions the mux applies on every ACK / loss signal; the
// suite drives them with seeded random inputs (200 cases per property) so
// the Reno/NewReno invariants hold over the whole operating envelope, not
// just the handful of trajectories the rack simulations happen to visit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "fbdcsim/core/rng.h"
#include "fbdcsim/transport/tcp.h"

namespace fbdcsim::transport {
namespace {

constexpr int kCases = 200;

TcpParams params() { return TcpParams{}; }

TEST(TcpLaws, CwndAfterAckIsMonotoneNonDecreasingAndCapped) {
  core::RngStream rng{0xC0FFEE};
  const TcpParams p = params();
  const std::int64_t cap = p.max_cwnd.count_bytes();
  for (int i = 0; i < kCases; ++i) {
    const std::int64_t cwnd = rng.uniform_int(1, cap);
    const std::int64_t ssthresh = rng.uniform_int(2 * kMssBytes, cap);
    const std::int64_t acked = rng.uniform_int(0, 4 * kMssBytes);
    const std::int64_t next = cwnd_after_ack(cwnd, ssthresh, acked, kMssBytes, cap);
    EXPECT_GE(next, cwnd) << "cwnd must never shrink on an ACK";
    EXPECT_LE(next, cap) << "cwnd must respect the max_cwnd cap";
    if (acked > 0 && cwnd < cap) {
      EXPECT_GT(next, cwnd) << "growth never stalls below the cap";
    }
    if (acked == 0) {
      EXPECT_EQ(next, cwnd);
    }
  }
}

TEST(TcpLaws, SlowStartDoublesPerRttCongestionAvoidanceIsLinear) {
  const TcpParams p = params();
  const std::int64_t cap = p.max_cwnd.count_bytes();
  // Slow start: acking a full cwnd of data in MSS chunks doubles cwnd.
  std::int64_t cwnd = 10 * kMssBytes;
  const std::int64_t ssthresh = 1'000 * kMssBytes;
  std::int64_t acked_total = cwnd;
  std::int64_t start = cwnd;
  while (acked_total > 0) {
    cwnd = cwnd_after_ack(cwnd, ssthresh, kMssBytes, kMssBytes, cap);
    acked_total -= kMssBytes;
  }
  EXPECT_EQ(cwnd, 2 * start);

  // Congestion avoidance: one RTT of full-MSS ACKs grows cwnd ~one MSS.
  std::int64_t ca = 100 * kMssBytes;  // above ssthresh below
  const std::int64_t before = ca;
  const int acks = static_cast<int>(before / kMssBytes);
  for (int i = 0; i < acks; ++i) {
    ca = cwnd_after_ack(ca, 2 * kMssBytes, kMssBytes, kMssBytes, cap);
  }
  EXPECT_NEAR(static_cast<double>(ca - before), static_cast<double>(kMssBytes),
              static_cast<double>(kMssBytes) * 0.10);
}

TEST(TcpLaws, SsthreshOnLossHalvesInflightWithFloor) {
  core::RngStream rng{0xBEEF};
  for (int i = 0; i < kCases; ++i) {
    const std::int64_t inflight = rng.uniform_int(0, 1'000'000);
    const std::int64_t s = ssthresh_on_loss(inflight, kMssBytes);
    EXPECT_GE(s, 2 * kMssBytes) << "floor of two segments";
    EXPECT_GE(s, inflight / 2);
    if (inflight / 2 >= 2 * kMssBytes) {
      EXPECT_EQ(s, inflight / 2);
    }
  }
}

TEST(TcpLaws, FastRecoveryEntryInvariants) {
  core::RngStream rng{0xFACE};
  const TcpParams p = params();
  for (int i = 0; i < kCases; ++i) {
    HalfStream h;
    h.snd_una = rng.uniform_int(0, 1'000'000);
    h.snd_nxt = h.snd_una + rng.uniform_int(0, 64) * kMssBytes;
    h.max_sent = h.snd_nxt;
    h.cwnd = rng.uniform_int(kMssBytes, p.max_cwnd.count_bytes());
    h.dupacks = kDupackThreshold;
    enter_fast_recovery(h);
    EXPECT_TRUE(h.in_recovery);
    EXPECT_EQ(h.recover, h.snd_nxt) << "recovery point is the send high-water";
    EXPECT_EQ(h.rtx_next, h.snd_una) << "the first hole retransmits immediately";
    EXPECT_EQ(h.cwnd, h.ssthresh + kDupackThreshold * kMssBytes)
        << "window inflates by the dupack threshold";
    EXPECT_EQ(h.dupacks, 0);
    EXPECT_EQ(h.ssthresh, ssthresh_on_loss(h.inflight(), kMssBytes));
  }
}

TEST(TcpLaws, RtoCollapsesWindowAndRewindsGoBackN) {
  core::RngStream rng{0xD00D};
  const TcpParams p = params();
  for (int i = 0; i < kCases; ++i) {
    HalfStream h;
    h.snd_una = rng.uniform_int(0, 1'000'000);
    h.snd_nxt = h.snd_una + rng.uniform_int(1, 64) * kMssBytes;
    h.max_sent = h.snd_nxt;
    h.cwnd = rng.uniform_int(kMssBytes, p.max_cwnd.count_bytes());
    h.in_recovery = rng.bernoulli(0.5);
    h.rtx_next = rng.bernoulli(0.5) ? h.snd_una : -1;
    const int backoff_before = static_cast<int>(rng.uniform_int(0, kMaxBackoff + 2));
    h.backoff = backoff_before;
    apply_rto(h);
    EXPECT_EQ(h.cwnd, kMssBytes) << "RTO collapses cwnd to one segment";
    EXPECT_EQ(h.snd_nxt, h.snd_una) << "go-back-N restarts from snd_una";
    EXPECT_FALSE(h.in_recovery);
    EXPECT_EQ(h.rtx_next, -1);
    EXPECT_EQ(h.backoff, std::min(backoff_before + 1, kMaxBackoff))
        << "backoff exponent grows but saturates";
  }
}

TEST(TcpLaws, ReceiverDeliversEveryPermutationExactlyOnce) {
  // Bytes conservation at the receiver: any arrival order of the segments
  // of a stream (with duplicates sprinkled in) ends with rcv_nxt == total
  // and no leftover out-of-order state. 200 seeded shuffles.
  for (int c = 0; c < kCases; ++c) {
    core::RngStream rng{0x5EED + static_cast<std::uint64_t>(c)};
    const int nseg = static_cast<int>(rng.uniform_int(1, 24));
    std::vector<int> order(static_cast<std::size_t>(nseg));
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng.engine());

    HalfStream h;
    const std::int64_t total = static_cast<std::int64_t>(nseg) * kMssBytes;
    // The bounded reorder buffer (8 ranges) can drop far-ahead segments;
    // real senders retransmit. Loop delivery rounds until drained.
    int rounds = 0;
    while (h.rcv_nxt < total && rounds < 64) {
      ++rounds;
      for (const int seg : order) {
        const std::int64_t seq = static_cast<std::int64_t>(seg) * kMssBytes;
        if (seq + kMssBytes <= h.rcv_nxt && !rng.bernoulli(0.2)) continue;
        receiver_deliver(h, seq, kMssBytes, seg == nseg - 1);
      }
    }
    EXPECT_EQ(h.rcv_nxt, total) << "seed case " << c;
    EXPECT_EQ(h.ooo_count, 0) << "no out-of-order residue once in-order";
  }
}

TEST(TcpLaws, ReceiverAckPolicy) {
  HalfStream h;
  // In-order, no PSH: delayed ACK fires on every second segment.
  EXPECT_FALSE(receiver_deliver(h, 0, kMssBytes, false));
  EXPECT_TRUE(receiver_deliver(h, kMssBytes, kMssBytes, false));
  EXPECT_FALSE(receiver_deliver(h, 2 * kMssBytes, kMssBytes, false));
  // PSH forces an immediate ACK.
  EXPECT_TRUE(receiver_deliver(h, 3 * kMssBytes, kMssBytes, true));
  // A gap forces an immediate (duplicate) ACK and does not advance.
  EXPECT_TRUE(receiver_deliver(h, 6 * kMssBytes, kMssBytes, false));
  EXPECT_EQ(h.rcv_nxt, 4 * kMssBytes);
  // Filling the gap merges and ACKs immediately.
  EXPECT_TRUE(receiver_deliver(h, 4 * kMssBytes, 2 * kMssBytes, false));
  EXPECT_EQ(h.rcv_nxt, 7 * kMssBytes);
  EXPECT_EQ(h.ooo_count, 0);
  // A pure duplicate re-ACKs immediately.
  EXPECT_TRUE(receiver_deliver(h, 0, kMssBytes, false));
  EXPECT_EQ(h.rcv_nxt, 7 * kMssBytes);
}

// A Web rack holds ~14k live connections: the ranges must stay out of line.
static_assert(sizeof(TcpConnection) <= 512);

TEST(HalfStreamLayout, FreshAndInOrderHalvesOwnNoRangeBlock) {
  HalfStream h;
  EXPECT_FALSE(h.ranges) << "a fresh half owns no range block";
  for (int seg = 0; seg < 32; ++seg) {
    (void)receiver_deliver(h, static_cast<std::int64_t>(seg) * kMssBytes, kMssBytes,
                           seg == 31);
  }
  EXPECT_EQ(h.rcv_nxt, 32 * kMssBytes);
  EXPECT_FALSE(h.ranges) << "in-order delivery never touches the block";
  const HalfStream copy = h;
  EXPECT_FALSE(copy.ranges);

  // The first out-of-order segment allocates it.
  EXPECT_TRUE(receiver_deliver(h, 40 * kMssBytes, kMssBytes, false));
  ASSERT_TRUE(h.ranges);
  EXPECT_EQ(h.ooo_count, 1);
  EXPECT_EQ(h.ranges->ooo_lo[0], 40 * kMssBytes);
}

TEST(HalfStreamLayout, CopyOwnsItsOwnRanges) {
  HalfStream h;
  h.snd_nxt = h.max_sent = 100 * kMssBytes;
  ASSERT_GT(sack_record(h, 10 * kMssBytes, 12 * kMssBytes), 0);
  (void)receiver_deliver(h, 5 * kMssBytes, kMssBytes, false);
  ASSERT_TRUE(h.ranges);

  HalfStream copy = h;
  ASSERT_TRUE(copy.ranges);
  EXPECT_NE(copy.ranges.get(), h.ranges.get());
  ASSERT_GT(sack_record(copy, 20 * kMssBytes, 21 * kMssBytes), 0);
  copy.ranges->ooo_lo[0] = 0;
  EXPECT_EQ(copy.sack_count, 2);
  EXPECT_EQ(h.sack_count, 1);
  EXPECT_EQ(h.ranges->sack_lo[0], 10 * kMssBytes);
  EXPECT_EQ(h.ranges->sack_hi[0], 12 * kMssBytes);
  EXPECT_EQ(h.ranges->ooo_lo[0], 5 * kMssBytes);
  EXPECT_EQ(sack_sacked_bytes(h), 2 * kMssBytes);

  // Assignment copies too, into an existing block or a missing one.
  HalfStream fresh;
  fresh = copy;
  copy = h;
  EXPECT_EQ(fresh.sack_count, 2);
  EXPECT_EQ(fresh.ranges->sack_lo[1], 20 * kMssBytes);
  EXPECT_EQ(copy.sack_count, 1);
  EXPECT_EQ(copy.ranges->ooo_lo[0], 5 * kMssBytes);
  copy = HalfStream{};
  EXPECT_FALSE(copy.ranges) << "assigning a half without ranges drops the block";
  EXPECT_TRUE(h.ranges);
}

}  // namespace
}  // namespace fbdcsim::transport
