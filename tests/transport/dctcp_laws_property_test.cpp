// Property suite for the pure DCTCP laws (transport/tcp.h) and the switch
// marking predicate (switching/switch.h). Same discipline as
// tcp_laws_property_test: 200 seeded cases per property, exercising the
// whole operating envelope rather than the trajectories rack runs visit.
// The rack-level counterpart (kDctcp with marking disabled bitwise equal
// to kNewReno end to end) lives in dctcp_differential_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fbdcsim/core/rng.h"
#include "fbdcsim/switching/switch.h"
#include "fbdcsim/transport/tcp.h"

namespace fbdcsim::transport {
namespace {

constexpr int kCases = 200;

TEST(DctcpLaws, AlphaStaysWithinUnitBounds) {
  core::RngStream rng{0xD0C7C9};
  for (int i = 0; i < kCases; ++i) {
    // Adversarial inputs: out-of-range alpha, marked > acked, zero acked.
    const std::int64_t alpha = rng.uniform_int(-kDctcpAlphaUnit, 3 * kDctcpAlphaUnit);
    const std::int64_t acked = rng.uniform_int(0, 1 << 22);
    const std::int64_t marked = rng.uniform_int(-1000, (1 << 22) + 1000);
    const int gain = static_cast<int>(rng.uniform_int(1, 8));
    const std::int64_t next = dctcp_alpha_update(alpha, marked, acked, gain);
    EXPECT_GE(next, 0) << "alpha must never go negative";
    EXPECT_LE(next, kDctcpAlphaUnit) << "alpha must never exceed 1.0";
  }
}

TEST(DctcpLaws, AlphaConvergesToConstantMarkFraction) {
  core::RngStream rng{0xA1FA};
  for (int i = 0; i < kCases; ++i) {
    const std::int64_t acked = rng.uniform_int(1460, 64 * 1460);
    const std::int64_t marked = rng.uniform_int(0, acked);
    std::int64_t alpha = rng.uniform_int(0, kDctcpAlphaUnit);
    // A few hundred windows at the default gain (1/16) is far past the
    // EWMA's time constant; the fixed point of
    //   alpha' = alpha - alpha/2^g + F/2^g
    // is F, up to the 2^g-unit quantization of the two shift terms.
    for (int step = 0; step < 512; ++step) {
      alpha = dctcp_alpha_update(alpha, marked, acked, kDctcpGainShift);
    }
    const std::int64_t fraction_q16 = marked * kDctcpAlphaUnit / acked;
    EXPECT_NEAR(static_cast<double>(alpha), static_cast<double>(fraction_q16),
                static_cast<double>(2 << kDctcpGainShift))
        << "alpha must settle at the steady mark fraction (F=" << fraction_q16 << ")";
  }
}

TEST(DctcpLaws, AlphaWithZeroMarksDecaysMonotonicallyToExactlyZero) {
  core::RngStream rng{0x2E80};
  for (int i = 0; i < kCases; ++i) {
    std::int64_t alpha = rng.uniform_int(1, kDctcpAlphaUnit);
    const std::int64_t acked = rng.uniform_int(1, 1 << 22);
    std::int64_t prev = alpha;
    int steps = 0;
    while (alpha > 0 && steps < 100'000) {
      alpha = dctcp_alpha_update(alpha, 0, acked, kDctcpGainShift);
      EXPECT_LT(alpha, prev) << "zero-mark windows must strictly decay alpha";
      prev = alpha;
      ++steps;
    }
    EXPECT_EQ(alpha, 0) << "alpha must reach exactly 0, not stall on the integer floor";
  }
}

TEST(DctcpLaws, CwndAfterMarkNeverBelowOneMssAndNeverGrows) {
  core::RngStream rng{0xC0DE};
  const TcpParams p;
  for (int i = 0; i < kCases; ++i) {
    const std::int64_t cwnd = rng.uniform_int(1, p.max_cwnd.count_bytes());
    const std::int64_t alpha = rng.uniform_int(-1000, kDctcpAlphaUnit + 1000);
    const std::int64_t next = dctcp_cwnd_after_mark(cwnd, alpha, kMssBytes);
    EXPECT_GE(next, kMssBytes) << "reduction must floor at one MSS";
    EXPECT_LE(next, std::max(cwnd, kMssBytes)) << "a mark must never grow cwnd";
  }
}

TEST(DctcpLaws, FullAlphaHalvesLikeRenoZeroAlphaIsIdentity) {
  core::RngStream rng{0x50F7};
  const TcpParams p;
  for (int i = 0; i < kCases; ++i) {
    const std::int64_t cwnd = rng.uniform_int(2 * kMssBytes, p.max_cwnd.count_bytes());
    // alpha = 1.0: cwnd(1 - 1/2) — the Reno halving.
    EXPECT_EQ(dctcp_cwnd_after_mark(cwnd, kDctcpAlphaUnit, kMssBytes),
              std::max(kMssBytes, cwnd - cwnd / 2));
    // alpha = 0: a DCTCP sender that has seen no marks reacts to a stray
    // ECE with the identity — the law-level half of the "zero marks is
    // bitwise NewReno" property (the growth path shares cwnd_after_ack).
    EXPECT_EQ(dctcp_cwnd_after_mark(cwnd, 0, kMssBytes), cwnd);
  }
}

TEST(DctcpLaws, ZeroMarkWindowsShareTheNewRenoGrowthLawBitwise) {
  core::RngStream rng{0x1DE7};
  const TcpParams p;
  const std::int64_t cap = p.max_cwnd.count_bytes();
  for (int i = 0; i < kCases; ++i) {
    // Two senders — one Reno, one DCTCP with zero marks — fed the same
    // random ACK trajectory. The DCTCP sender additionally runs its alpha
    // EWMA each window; its cwnd must stay bitwise equal throughout
    // because an unmarked window never touches cwnd outside
    // cwnd_after_ack.
    std::int64_t reno_cwnd = rng.uniform_int(kMssBytes, cap);
    std::int64_t dctcp_cwnd = reno_cwnd;
    std::int64_t alpha = rng.uniform_int(0, kDctcpAlphaUnit);
    const std::int64_t ssthresh = rng.uniform_int(2 * kMssBytes, cap);
    for (int step = 0; step < 64; ++step) {
      const std::int64_t acked = rng.uniform_int(1, 3 * kMssBytes);
      reno_cwnd = cwnd_after_ack(reno_cwnd, ssthresh, acked, kMssBytes, cap);
      dctcp_cwnd = cwnd_after_ack(dctcp_cwnd, ssthresh, acked, kMssBytes, cap);
      alpha = dctcp_alpha_update(alpha, 0, acked, kDctcpGainShift);
      ASSERT_EQ(dctcp_cwnd, reno_cwnd) << "step " << step;
    }
  }
}

TEST(DctcpLaws, MarkingThresholdIsMonotone) {
  core::RngStream rng{0xECEC};
  for (int i = 0; i < kCases; ++i) {
    // A random occupancy trajectory marked under two thresholds K1 < K2:
    // everything marked at the laxer K2 must also mark at K1 — raising K
    // never marks a packet the lower threshold spared.
    const std::int64_t k1 = rng.uniform_int(1, 1 << 22);
    const std::int64_t k2 = k1 + rng.uniform_int(1, 1 << 22);
    for (int s = 0; s < 32; ++s) {
      const std::int64_t occupancy = rng.uniform_int(0, 1 << 23);
      const core::Ecn ecn = rng.uniform_int(0, 1) != 0 ? core::Ecn::kEct : core::Ecn::kNotEct;
      const bool low = switching::ecn_should_mark(occupancy, k1, ecn);
      const bool high = switching::ecn_should_mark(occupancy, k2, ecn);
      EXPECT_LE(high, low) << "K=" << k2 << " marked a packet K=" << k1 << " spared";
      if (ecn == core::Ecn::kNotEct) {
        EXPECT_FALSE(low) << "non-ECT packets must never be marked";
      }
      EXPECT_FALSE(switching::ecn_should_mark(occupancy, 0, ecn))
          << "threshold 0 disables marking entirely";
    }
  }
}

}  // namespace
}  // namespace fbdcsim::transport
