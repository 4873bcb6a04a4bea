// Property suite for the pure SACK laws in transport/tcp.h (RFC 2018
// receiver block generation, RFC 6675 sender scoreboard). These are the
// functions the mux applies on every block-carrying ACK; the suite drives
// them with seeded random inputs (200 cases per property) against
// independent per-byte models, so the scoreboard invariants hold over the
// whole operating envelope, not just the trajectories rack runs visit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fbdcsim/core/rng.h"
#include "fbdcsim/transport/tcp.h"

namespace fbdcsim::transport {
namespace {

constexpr int kCases = 200;

TcpParams params() { return TcpParams{}; }

/// Structural invariants every reachable scoreboard satisfies: sorted by
/// lo, strictly non-empty ranges, pairwise disjoint AND non-adjacent
/// (adjacent ranges must have merged), bounded, and nothing below snd_una.
void expect_scoreboard_well_formed(const HalfStream& h) {
  ASSERT_LE(h.sack_count, HalfStream::kMaxSackRanges);
  for (int i = 0; i < h.sack_count; ++i) {
    EXPECT_LT(h.ranges->sack_lo[i], h.ranges->sack_hi[i]) << "empty range at " << i;
    EXPECT_GE(h.ranges->sack_lo[i], h.snd_una) << "sacked range below snd_una at " << i;
    if (i > 0) {
      EXPECT_GT(h.ranges->sack_lo[i], h.ranges->sack_hi[i - 1])
          << "ranges must stay sorted, disjoint, and non-adjacent";
    }
  }
}

bool scoreboard_sacked(const HalfStream& h, std::int64_t byte) {
  for (int i = 0; i < h.sack_count; ++i) {
    if (h.ranges->sack_lo[i] <= byte && byte < h.ranges->sack_hi[i]) return true;
  }
  return false;
}

TEST(SackLaws, RecordClampsMergesAndReturnsNewlySackedBytes) {
  // Random block sequences against a per-byte model. The model applies the
  // same bounded-list drop rule the law documents (full + unmergeable ->
  // the NEW block is dropped), so the two must agree byte for byte.
  constexpr std::int64_t kSent = 2'000;
  for (int c = 0; c < kCases; ++c) {
    core::RngStream rng{0x5AC0 + static_cast<std::uint64_t>(c)};
    HalfStream h;
    h.snd_una = 0;
    h.snd_nxt = h.max_sent = kSent;
    std::vector<bool> model(kSent, false);
    for (int op = 0; op < 30; ++op) {
      // Deliberately overshoot both ends to exercise the clamps.
      const std::int64_t lo = rng.uniform_int(-200, kSent + 200);
      const std::int64_t hi = lo + rng.uniform_int(0, 400);
      const std::int64_t clo = std::max<std::int64_t>(lo, 0);
      const std::int64_t chi = std::min(hi, kSent);
      std::int64_t would_add = 0;
      for (std::int64_t b = clo; b < chi; ++b) would_add += model[b] ? 0 : 1;

      const std::int64_t before = sack_sacked_bytes(h);
      const std::int64_t got = sack_record(h, lo, hi);
      expect_scoreboard_well_formed(h);
      if (got == 0 && would_add > 0) {
        // The bounded list refused the block: it must actually be full and
        // the block must touch no existing range (otherwise it would merge).
        EXPECT_EQ(h.sack_count, HalfStream::kMaxSackRanges);
        for (int i = 0; i < h.sack_count; ++i) {
          EXPECT_FALSE(h.ranges->sack_lo[i] <= chi && h.ranges->sack_hi[i] >= clo)
              << "a mergeable block must never be dropped";
        }
        EXPECT_EQ(sack_sacked_bytes(h), before) << "a dropped block changes nothing";
        continue;  // the model skips the update too, staying in sync
      }
      EXPECT_EQ(got, would_add) << "return value is exactly the newly-sacked bytes";
      for (std::int64_t b = clo; b < chi; ++b) model[b] = true;
      EXPECT_EQ(sack_sacked_bytes(h), before + got);
      std::int64_t mismatch = -1;
      for (std::int64_t b = 0; b < kSent && mismatch < 0; ++b) {
        if (scoreboard_sacked(h, b) != static_cast<bool>(model[b])) mismatch = b;
      }
      ASSERT_EQ(mismatch, -1) << "case " << c << " op " << op
                              << ": scoreboard diverges from the model at that byte";
    }
  }
}

TEST(SackLaws, SackedBytesAreMonotoneUnderRecordOnly) {
  // The monotonicity law the eviction policy exists to protect: without a
  // cumulative-ACK advance, no sequence of recorded blocks (in-window,
  // stale, duplicate, or overflowing the bounded list) ever un-sacks a byte.
  for (int c = 0; c < kCases; ++c) {
    core::RngStream rng{0xB10C + static_cast<std::uint64_t>(c)};
    HalfStream h;
    h.snd_una = rng.uniform_int(0, 10'000);
    h.snd_nxt = h.max_sent = h.snd_una + rng.uniform_int(1, 40'000);
    std::int64_t prev = 0;
    for (int op = 0; op < 60; ++op) {
      const std::int64_t lo = h.snd_una + rng.uniform_int(-500, 41'000);
      const std::int64_t ret = sack_record(h, lo, lo + rng.uniform_int(0, 900));
      const std::int64_t now = sack_sacked_bytes(h);
      EXPECT_GE(ret, 0);
      EXPECT_GE(now, prev) << "sacked bytes never decrease under record";
      EXPECT_EQ(now - prev, ret);
      prev = now;
    }
  }
}

TEST(SackLaws, OnlyCumulativeAckAdvanceUnSacks) {
  // sack_advance is the single transition that removes sacked bytes, and
  // it removes exactly the bytes below the new snd_una: everything at or
  // above it stays sacked, nothing new appears.
  constexpr std::int64_t kSent = 4'000;
  for (int c = 0; c < kCases; ++c) {
    core::RngStream rng{0xADA + static_cast<std::uint64_t>(c)};
    HalfStream h;
    h.snd_una = 0;
    h.snd_nxt = h.max_sent = kSent;
    for (int op = 0; op < 12; ++op) {
      const std::int64_t lo = rng.uniform_int(0, kSent);
      (void)sack_record(h, lo, lo + rng.uniform_int(1, 600));
    }
    std::vector<bool> before(kSent, false);
    for (std::int64_t b = 0; b < kSent; ++b) before[b] = scoreboard_sacked(h, b);

    h.snd_una = rng.uniform_int(0, kSent);
    sack_advance(h);
    expect_scoreboard_well_formed(h);
    std::int64_t mismatch = -1;
    for (std::int64_t b = 0; b < kSent && mismatch < 0; ++b) {
      const bool want = b >= h.snd_una && before[b];
      if (scoreboard_sacked(h, b) != want) mismatch = b;
    }
    ASSERT_EQ(mismatch, -1) << "advance to " << h.snd_una
                            << " must crop exactly the bytes below it";
  }
}

TEST(SackLaws, PipeIdentityMatchesPerByteRecomputationAndIsBounded) {
  // RFC-6675-style pipe on reachable states: recompute sacked / lost /
  // rtx_out by classifying every in-flight byte independently, then check
  // each law and the identity pipe == inflight - sacked - lost + rtx_out,
  // plus 0 <= pipe <= inflight.
  for (int c = 0; c < kCases; ++c) {
    core::RngStream rng{0x919E + static_cast<std::uint64_t>(c)};
    HalfStream h;
    h.snd_una = rng.uniform_int(0, 5'000);
    h.snd_nxt = h.max_sent = h.snd_una + rng.uniform_int(0, 6'000);
    for (int op = 0; op < 10; ++op) {
      const std::int64_t lo = h.snd_una + rng.uniform_int(0, 6'000);
      (void)sack_record(h, lo, lo + rng.uniform_int(1, 800));
    }
    // high_rtx may sit anywhere, including stale values outside the window
    // (the laws clamp it); rescue retransmits never move it.
    h.high_rtx = rng.uniform_int(h.snd_una - 1'000, h.snd_nxt + 1'000);

    const std::int64_t fack = sack_fack(h);
    const std::int64_t rtx_ceil = std::clamp(h.high_rtx, h.snd_una, fack);
    std::int64_t sacked = 0;
    std::int64_t lost = 0;
    std::int64_t rtx_out = 0;
    for (std::int64_t b = h.snd_una; b < h.snd_nxt; ++b) {
      const bool s = scoreboard_sacked(h, b);
      if (s) ++sacked;
      if (!s && b < fack) ++lost;
      if (!s && b < rtx_ceil) ++rtx_out;
    }
    EXPECT_EQ(sack_sacked_bytes(h), sacked);
    EXPECT_EQ(sack_lost_bytes(h), lost);
    EXPECT_EQ(sack_rtx_out_bytes(h), rtx_out);
    const std::int64_t pipe = sack_pipe(h);
    EXPECT_EQ(pipe, h.inflight() - sacked - lost + rtx_out) << "pipe identity";
    EXPECT_GE(pipe, 0);
    EXPECT_LE(pipe, h.inflight());
    EXPECT_GE(fack, h.snd_una);
    EXPECT_LE(fack, h.snd_nxt) << "fack cannot pass the send high-water";
  }
}

TEST(SackLaws, BoundedListDropsUnmergeableBlocksWhenFull) {
  HalfStream h;
  h.snd_una = 0;
  h.snd_nxt = h.max_sent = 10'000;
  // Fill all 16 slots with disjoint, non-adjacent unit ranges.
  for (int i = 0; i < HalfStream::kMaxSackRanges; ++i) {
    EXPECT_EQ(sack_record(h, 100 + 20 * i, 100 + 20 * i + 5), 5);
  }
  ASSERT_EQ(h.sack_count, HalfStream::kMaxSackRanges);
  const std::int64_t sacked = sack_sacked_bytes(h);

  // An unmergeable block (strictly inside a gap, touching nothing) is
  // dropped whole; the scoreboard is untouched.
  HalfStream snapshot = h;
  EXPECT_EQ(sack_record(h, 110, 112), 0);
  EXPECT_EQ(h.sack_count, HalfStream::kMaxSackRanges);
  EXPECT_EQ(sack_sacked_bytes(h), sacked);
  for (int i = 0; i < h.sack_count; ++i) {
    EXPECT_EQ(h.ranges->sack_lo[i], snapshot.ranges->sack_lo[i]);
    EXPECT_EQ(h.ranges->sack_hi[i], snapshot.ranges->sack_hi[i]);
  }

  // A mergeable block still lands even at capacity: extending range 3
  // ([160, 165)) adds exactly the new bytes without growing the count.
  EXPECT_EQ(sack_record(h, 165, 170), 5);
  EXPECT_EQ(h.sack_count, HalfStream::kMaxSackRanges);
  EXPECT_EQ(sack_sacked_bytes(h), sacked + 5);

  // A spanning block collapses everything it bridges into one range.
  EXPECT_EQ(sack_record(h, 100, 100 + 20 * 16), 20 * 16 - sacked - 5);
  EXPECT_EQ(h.sack_count, 1);
  expect_scoreboard_well_formed(h);
}

TEST(SackLaws, RtoClearsTheScoreboardAndFallsBackToGoBackN) {
  core::RngStream rng{0x4707};
  const TcpParams p = params();
  for (int i = 0; i < kCases; ++i) {
    HalfStream h;
    h.snd_una = rng.uniform_int(0, 1'000'000);
    h.snd_nxt = h.max_sent = h.snd_una + rng.uniform_int(1, 64) * kMssBytes;
    h.cwnd = rng.uniform_int(kMssBytes, p.max_cwnd.count_bytes());
    h.in_recovery = rng.bernoulli(0.5);
    h.rescue_done = rng.bernoulli(0.5);
    h.high_rtx = rng.uniform_int(h.snd_una, h.snd_nxt);
    for (int op = 0; op < 6; ++op) {
      const std::int64_t lo = h.snd_una + rng.uniform_int(0, 40) * kMssBytes;
      (void)sack_record(h, lo, lo + kMssBytes);
    }
    const int backoff_before = static_cast<int>(rng.uniform_int(0, kMaxBackoff + 2));
    h.backoff = backoff_before;

    apply_rto_sack(h);
    EXPECT_EQ(h.sack_count, 0) << "a timeout must not trust sacked ranges";
    EXPECT_EQ(sack_sacked_bytes(h), 0);
    EXPECT_FALSE(h.rescue_done);
    EXPECT_EQ(h.high_rtx, h.snd_una);
    EXPECT_EQ(h.snd_nxt, h.snd_una) << "go-back-N restarts from snd_una";
    EXPECT_EQ(h.cwnd, kMssBytes);
    EXPECT_FALSE(h.in_recovery);
    EXPECT_EQ(h.rtx_next, -1);
    EXPECT_EQ(h.backoff, std::min(backoff_before + 1, kMaxBackoff));
  }
}

TEST(SackLaws, EnterSackRecoveryInvariants) {
  core::RngStream rng{0xE57E};
  const TcpParams p = params();
  for (int i = 0; i < kCases; ++i) {
    HalfStream h;
    h.snd_una = rng.uniform_int(0, 1'000'000);
    h.snd_nxt = h.max_sent = h.snd_una + rng.uniform_int(1, 64) * kMssBytes;
    h.cwnd = rng.uniform_int(kMssBytes, p.max_cwnd.count_bytes());
    h.dupacks = kDupackThreshold;
    h.rescue_done = true;
    h.high_rtx = h.snd_nxt;  // stale episode state must be reset
    const std::int64_t inflight = h.inflight();

    enter_sack_recovery(h);
    EXPECT_TRUE(h.in_recovery);
    EXPECT_EQ(h.recover, h.snd_nxt) << "recovery point is the send high-water";
    EXPECT_EQ(h.ssthresh, ssthresh_on_loss(inflight, kMssBytes));
    EXPECT_EQ(h.cwnd, h.ssthresh) << "no dupack inflation: sack_pipe gates sending";
    EXPECT_EQ(h.high_rtx, h.snd_una);
    EXPECT_FALSE(h.rescue_done);
    EXPECT_EQ(h.dupacks, 0);
    EXPECT_EQ(h.rtx_next, -1) << "the NewReno hole cursor stays out of SACK episodes";
  }
}

TEST(SackLaws, ShouldEnterRecoveryTriggers) {
  const std::int64_t mss = kMssBytes;
  // Classic threshold: kDupackThreshold dupacks suffice, scoreboard or not.
  {
    HalfStream h;
    h.snd_una = 0;
    h.snd_nxt = h.max_sent = 64 * mss;
    h.dupacks = kDupackThreshold;
    EXPECT_TRUE(sack_should_enter_recovery(h));
    h.dupacks = kDupackThreshold - 1;
    EXPECT_FALSE(sack_should_enter_recovery(h))
        << "an empty scoreboard adds no earlier trigger";
  }
  // RFC 6675 IsLost: kDupackThreshold segments sacked above the hole prove
  // the loss before the dupack counter gets there.
  {
    HalfStream h;
    h.snd_una = 0;
    h.snd_nxt = h.max_sent = 64 * mss;
    h.dupacks = 1;
    (void)sack_record(h, mss, mss + kDupackThreshold * mss);
    EXPECT_TRUE(sack_should_enter_recovery(h));
    HalfStream less;
    less.snd_una = 0;
    less.snd_nxt = less.max_sent = 64 * mss;
    less.dupacks = 1;
    (void)sack_record(less, mss, mss + (kDupackThreshold * mss - 1));
    EXPECT_FALSE(sack_should_enter_recovery(less));
  }
  // RFC 5827 early retransmit: a 2-segment window can never yield 3
  // dupacks; one dupack plus one sacked segment is proof enough.
  {
    HalfStream h;
    h.snd_una = 0;
    h.snd_nxt = h.max_sent = 2 * mss;
    h.dupacks = 1;
    (void)sack_record(h, mss, 2 * mss);
    EXPECT_TRUE(sack_should_enter_recovery(h));
  }
  // Early retransmit never fires without SACK evidence (a lone dupack on a
  // tiny window could be reordering), nor on windows of 4+ segments.
  {
    HalfStream bare;
    bare.snd_una = 0;
    bare.snd_nxt = bare.max_sent = 2 * mss;
    bare.dupacks = 2;
    EXPECT_FALSE(sack_should_enter_recovery(bare));
    HalfStream wide;
    wide.snd_una = 0;
    wide.snd_nxt = wide.max_sent = 8 * mss;
    wide.dupacks = 1;
    (void)sack_record(wide, mss, 2 * mss);
    EXPECT_FALSE(sack_should_enter_recovery(wide));
  }
}

TEST(SackLaws, NextSegPrefersTheLowestHoleAboveHighRtx) {
  // Random scoreboards against a per-byte model of RFC 6675 NextSeg rule 1:
  // the chosen segment starts at the first unsacked byte at/above
  // max(snd_una, high_rtx) that precedes a sacked range, and never crosses
  // into sacked territory.
  for (int c = 0; c < kCases; ++c) {
    core::RngStream rng{0x6675 + static_cast<std::uint64_t>(c)};
    const std::int64_t mss = 100;
    HalfStream h;
    h.snd_una = rng.uniform_int(0, 2'000);
    h.demand = h.snd_una + rng.uniform_int(0, 8'000);
    h.snd_nxt = h.max_sent = std::min(h.demand, h.snd_una + rng.uniform_int(0, 8'000));
    for (int op = 0; op < 8; ++op) {
      const std::int64_t lo = h.snd_una + rng.uniform_int(0, 8'000);
      (void)sack_record(h, lo, lo + rng.uniform_int(1, 700));
    }
    h.high_rtx = rng.uniform_int(h.snd_una, h.snd_nxt + 1);
    h.in_recovery = true;
    h.recover = h.snd_nxt;
    h.rescue_done = true;  // isolate rules 1 and 2 from the rescue path

    const std::int64_t fack = sack_fack(h);
    std::int64_t hole = -1;
    for (std::int64_t b = std::max(h.snd_una, h.high_rtx); b < fack; ++b) {
      if (!scoreboard_sacked(h, b)) {
        hole = b;
        break;
      }
    }
    const SackNextSeg seg = sack_next_seg(h, mss);
    if (hole >= 0) {
      EXPECT_TRUE(seg.is_rtx);
      EXPECT_FALSE(seg.rescue);
      EXPECT_EQ(seg.seq, hole);
      EXPECT_GT(seg.len, 0);
      EXPECT_LE(seg.len, mss);
      for (std::int64_t b = seg.seq; b < seg.seq + seg.len; ++b) {
        ASSERT_FALSE(scoreboard_sacked(h, b))
            << "a retransmission must never resend sacked bytes";
      }
    } else if (h.snd_nxt < h.demand) {
      EXPECT_FALSE(seg.is_rtx) << "no holes left: send new data";
      EXPECT_EQ(seg.seq, h.snd_nxt);
      EXPECT_EQ(seg.len, std::min(mss, h.demand - h.snd_nxt));
    } else {
      EXPECT_LT(seg.seq, 0) << "nothing sendable";
    }
  }
}

TEST(SackLaws, RescueFiresOncePerEpisodeAndTargetsTheTail) {
  const std::int64_t mss = kMssBytes;
  HalfStream h;
  h.snd_una = 0;
  h.demand = h.snd_nxt = h.max_sent = 10 * mss;
  h.dupacks = kDupackThreshold;
  enter_sack_recovery(h);
  // Everything below the recovery point is sacked except the tail segment:
  // no rule-1 hole (high_rtx past the front), no new data — only the
  // rescue can touch the unsacked tail.
  (void)sack_record(h, 0, 9 * mss);
  h.high_rtx = 9 * mss;

  const SackNextSeg rescue = sack_next_seg(h, mss);
  ASSERT_GE(rescue.seq, 0);
  EXPECT_TRUE(rescue.rescue);
  EXPECT_TRUE(rescue.is_rtx);
  EXPECT_EQ(rescue.seq, 9 * mss) << "the last unsacked chunk below recover";
  EXPECT_EQ(rescue.seq + rescue.len, h.recover);
  EXPECT_GE(rescue.seq, sack_fack(h));

  // One per episode: after the mux marks it done, the law yields nothing.
  h.rescue_done = true;
  EXPECT_LT(sack_next_seg(h, mss).seq, 0);
  // And a fully-sacked recovery window never needs one.
  HalfStream full = h;
  full.rescue_done = false;
  (void)sack_record(full, 9 * mss, 10 * mss);
  EXPECT_LT(sack_next_seg(full, mss).seq, 0);
}

TEST(SackLaws, ReceiverSackBlockReportsTheMaximalContiguousRange) {
  const std::int64_t mss = kMssBytes;
  // Deterministic walk first: the block always covers the out-of-order
  // segment that just landed, grown to its maximal contiguous extent.
  HalfStream h;
  receiver_deliver(h, 0, mss, false);
  EXPECT_EQ(receiver_sack_block(h, 0, mss).hi, 0) << "in-order data: no block";
  receiver_deliver(h, 3 * mss, mss, false);
  SackBlock b = receiver_sack_block(h, 3 * mss, 4 * mss);
  EXPECT_EQ(b.lo, 3 * mss);
  EXPECT_EQ(b.hi, 4 * mss);
  receiver_deliver(h, 5 * mss, mss, false);
  b = receiver_sack_block(h, 5 * mss, 6 * mss);
  EXPECT_EQ(b.lo, 5 * mss) << "the block tracks the segment that triggered the ACK";
  EXPECT_EQ(b.hi, 6 * mss);
  receiver_deliver(h, 4 * mss, mss, false);
  b = receiver_sack_block(h, 4 * mss, 5 * mss);
  EXPECT_EQ(b.lo, 3 * mss) << "bridging segment merges to the maximal range";
  EXPECT_EQ(b.hi, 6 * mss);
  // A duplicate of already-consumed data reports the lowest buffered range
  // (the hole in front of it is what the sender must repair).
  b = receiver_sack_block(h, 0, mss);
  EXPECT_EQ(b.lo, 3 * mss);
  EXPECT_EQ(b.hi, 6 * mss);
  receiver_deliver(h, mss, 2 * mss, false);  // fill the hole
  EXPECT_EQ(h.rcv_nxt, 6 * mss);
  EXPECT_EQ(h.ooo_count, 0);
  EXPECT_EQ(receiver_sack_block(h, mss, 3 * mss).hi, 0) << "nothing buffered: no block";

  // Randomized: whatever arrival order, a reported block never overlaps
  // the consumed prefix and only ever names delivered bytes.
  for (int c = 0; c < kCases; ++c) {
    core::RngStream rng{0x0B10 + static_cast<std::uint64_t>(c)};
    HalfStream r;
    const int nseg = static_cast<int>(rng.uniform_int(2, 16));
    std::vector<bool> delivered(static_cast<std::size_t>(nseg), false);
    for (int op = 0; op < 3 * nseg; ++op) {
      const std::int64_t seg = rng.uniform_int(0, nseg - 1);
      const std::int64_t seq = seg * mss;
      receiver_deliver(r, seq, mss, false);
      delivered[static_cast<std::size_t>(seg)] = true;
      const SackBlock blk = receiver_sack_block(r, seq, seq + mss);
      if (r.ooo_count == 0) {
        EXPECT_EQ(blk.hi, blk.lo);
        continue;
      }
      ASSERT_GT(blk.hi, blk.lo);
      EXPECT_GE(blk.lo, r.rcv_nxt) << "blocks never overlap the cumulative prefix";
      EXPECT_EQ(blk.lo % mss, 0);
      for (std::int64_t byte_seg = blk.lo / mss; byte_seg < (blk.hi + mss - 1) / mss;
           ++byte_seg) {
        ASSERT_TRUE(delivered[static_cast<std::size_t>(byte_seg)])
            << "a block may only name bytes that actually arrived";
      }
    }
  }
}

}  // namespace
}  // namespace fbdcsim::transport
