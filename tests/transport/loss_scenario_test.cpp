// Loss-scenario conformance suite: deterministic scripted-loss runs (see
// tests/support/scripted_loss.h) pinning how each LossRecovery law repairs
// canonical loss shapes — single hole, clustered holes, independent spaced
// holes, a contiguous burst, full tail loss, penultimate-segment loss, and
// a lost retransmission. Every scenario runs under BOTH laws and asserts
// exact retransmit counts, timeout counts, and recovery-time bounds; the
// intra-rack RTT is microseconds while kMinRto is 200 ms, so "repaired by
// dupacks" versus "waited for the timer" differ by three orders of
// magnitude and the bounds have enormous margins.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "../support/scripted_loss.h"
#include "fbdcsim/transport/params.h"

namespace fbdcsim::transport {
namespace {

using tests::ScenarioOutcome;
using tests::run_loss_scenario;

/// Drops attempt 1 of every listed segment.
tests::ScriptedDrop drop_once(std::vector<std::int64_t> segments) {
  return [segments = std::move(segments)](std::int64_t segment, int attempt) {
    if (attempt != 1) return false;
    for (const std::int64_t s : segments) {
      if (s == segment) return true;
    }
    return false;
  };
}

TEST(LossScenario, LosslessBaselineIsIdenticalAcrossRecoveryLaws) {
  // With nothing to recover, the two laws must not differ by a single
  // segment or nanosecond — the scoreboard only engages on loss evidence.
  const ScenarioOutcome reno = run_loss_scenario(LossRecovery::kNewReno, 60, nullptr);
  const ScenarioOutcome sack = run_loss_scenario(LossRecovery::kSack, 60, nullptr);
  for (const ScenarioOutcome* o : {&reno, &sack}) {
    EXPECT_TRUE(o->completed);
    EXPECT_EQ(o->stats.retransmit_segments, 0);
    EXPECT_EQ(o->stats.rto_fired, 0);
    EXPECT_EQ(o->stats.sack_blocks_recorded, 0);
    EXPECT_EQ(o->stats.sack_retransmits, 0);
  }
  EXPECT_EQ(sack.stats.segments_sent, reno.stats.segments_sent);
  EXPECT_EQ(sack.completion.count_nanos(), reno.completion.count_nanos());
}

TEST(LossScenario, SingleHoleRepairsByDupacksWithoutTimeout) {
  // One lost segment mid-stream: both laws see the dupack burst from the
  // eight segments behind the hole, retransmit exactly the hole (dupack
  // kind), and never touch the timer.
  for (const LossRecovery rec : {LossRecovery::kNewReno, LossRecovery::kSack}) {
    const ScenarioOutcome o = run_loss_scenario(rec, 60, drop_once({20}));
    ASSERT_TRUE(o.completed) << to_string(rec);
    EXPECT_EQ(o.dropped_frames, 1) << to_string(rec);
    EXPECT_EQ(o.stats.retransmit_segments, 1) << to_string(rec);
    EXPECT_EQ(o.stats.rtx_dupack_segments, 1) << to_string(rec);
    EXPECT_EQ(o.stats.rtx_rto_segments, 0) << to_string(rec);
    EXPECT_EQ(o.stats.fast_retransmits, 1) << to_string(rec);
    EXPECT_EQ(o.stats.rto_fired, 0) << to_string(rec);
    EXPECT_LT(o.completion.count_nanos(), kMinRto.count_nanos()) << to_string(rec);
    if (rec == LossRecovery::kSack) {
      EXPECT_GT(o.stats.sack_blocks_recorded, 0) << "dupacks must carry blocks";
      EXPECT_EQ(o.stats.sack_retransmits, 1);
      EXPECT_EQ(o.stats.sack_rescue_retransmits, 0);
    }
  }
}

TEST(LossScenario, TwoHolesInOneWindowAreOneEpisode) {
  // Two holes three segments apart, both inside one window: a single
  // fast-recovery episode repairs both. NewReno learns the second hole
  // only from the partial ACK; the scoreboard exposes it immediately —
  // identical retransmit counts, and SACK finishes no later.
  const auto drop = drop_once({20, 23});
  const ScenarioOutcome reno = run_loss_scenario(LossRecovery::kNewReno, 60, drop);
  const ScenarioOutcome sack = run_loss_scenario(LossRecovery::kSack, 60, drop);
  for (const auto& [name, o] :
       {std::pair<const char*, const ScenarioOutcome&>{"newreno", reno}, {"sack", sack}}) {
    ASSERT_TRUE(o.completed) << name;
    EXPECT_EQ(o.dropped_frames, 2) << name;
    EXPECT_EQ(o.stats.retransmit_segments, 2) << name;
    EXPECT_EQ(o.stats.rtx_dupack_segments, 2) << name;
    EXPECT_EQ(o.stats.fast_retransmits, 1) << name << ": one episode covers both holes";
    EXPECT_EQ(o.stats.rto_fired, 0) << name;
    EXPECT_LT(o.completion.count_nanos(), kMinRto.count_nanos()) << name;
  }
  EXPECT_EQ(sack.stats.sack_retransmits, 2);
  EXPECT_LE(sack.completion.count_nanos(), reno.completion.count_nanos());
}

TEST(LossScenario, SpacedHolesAreIndependentEpisodes) {
  // Three holes wider apart than the window: three separate fast-recovery
  // episodes, one retransmission each, no timeout — under both laws.
  const auto drop = drop_once({20, 35, 50});
  const ScenarioOutcome reno = run_loss_scenario(LossRecovery::kNewReno, 60, drop);
  const ScenarioOutcome sack = run_loss_scenario(LossRecovery::kSack, 60, drop);
  for (const auto& [name, o] :
       {std::pair<const char*, const ScenarioOutcome&>{"newreno", reno}, {"sack", sack}}) {
    ASSERT_TRUE(o.completed) << name;
    EXPECT_EQ(o.dropped_frames, 3) << name;
    EXPECT_EQ(o.stats.retransmit_segments, 3) << name;
    EXPECT_EQ(o.stats.rtx_dupack_segments, 3) << name;
    EXPECT_EQ(o.stats.fast_retransmits, 3) << name << ": one episode per hole";
    EXPECT_EQ(o.stats.rto_fired, 0) << name;
    EXPECT_LT(o.completion.count_nanos(), kMinRto.count_nanos()) << name;
  }
  EXPECT_EQ(sack.stats.sack_retransmits, 3);
  EXPECT_LE(sack.completion.count_nanos(), reno.completion.count_nanos());
}

TEST(LossScenario, BurstLossSackNeverResendsDeliveredBytes) {
  // Four contiguous losses in one window. NewReno's partial-ACK loop goes
  // blind after the first hole and re-sends segments the receiver already
  // buffered (the classic multiple-loss inefficiency); the scoreboard
  // proves exactly which bytes are missing, so SACK retransmits the four
  // holes and nothing else, and finishes strictly sooner.
  const auto drop = drop_once({20, 21, 22, 23});
  const ScenarioOutcome reno = run_loss_scenario(LossRecovery::kNewReno, 60, drop);
  const ScenarioOutcome sack = run_loss_scenario(LossRecovery::kSack, 60, drop);

  ASSERT_TRUE(reno.completed);
  ASSERT_TRUE(sack.completed);
  EXPECT_EQ(reno.dropped_frames, 4);
  EXPECT_EQ(sack.dropped_frames, 4);
  EXPECT_EQ(reno.stats.rto_fired, 0);
  EXPECT_EQ(sack.stats.rto_fired, 0);
  EXPECT_GT(reno.stats.retransmit_segments, 4)
      << "NewReno must pay spurious retransmissions for a burst";
  EXPECT_EQ(sack.stats.retransmit_segments, 4) << "SACK resends the holes, exactly";
  EXPECT_EQ(sack.stats.sack_retransmits, 4);
  EXPECT_LT(sack.stats.retransmit_segments, reno.stats.retransmit_segments);
  EXPECT_LT(sack.completion.count_nanos(), reno.completion.count_nanos());
  EXPECT_LT(reno.completion.count_nanos(), kMinRto.count_nanos())
      << "even NewReno repairs the burst without the timer";
}

TEST(LossScenario, FullTailLossWaitsForTheTimerUnderBothLaws) {
  // The last three segments all vanish: nothing arrives after the holes,
  // so no dupacks and no SACK blocks exist — selective acknowledgments
  // cannot beat physics. Both laws wait out kMinRto, then go-back-N
  // resends the tail (the three lost segments plus the delayed-ACK
  // straggler in front of them that was never cumulatively acknowledged).
  for (const LossRecovery rec : {LossRecovery::kNewReno, LossRecovery::kSack}) {
    const ScenarioOutcome o = run_loss_scenario(rec, 30, drop_once({27, 28, 29}));
    ASSERT_TRUE(o.completed) << to_string(rec);
    EXPECT_EQ(o.dropped_frames, 3) << to_string(rec);
    EXPECT_EQ(o.stats.rto_fired, 1) << to_string(rec);
    EXPECT_EQ(o.stats.retransmit_segments, 4) << to_string(rec);
    EXPECT_EQ(o.stats.rtx_rto_segments, 4) << to_string(rec);
    EXPECT_EQ(o.stats.rtx_dupack_segments, 0) << to_string(rec);
    EXPECT_GE(o.completion.count_nanos(), kMinRto.count_nanos()) << to_string(rec);
    EXPECT_LT(o.completion.count_nanos(), 2 * kMinRto.count_nanos()) << to_string(rec);
    if (rec == LossRecovery::kSack) {
      EXPECT_EQ(o.stats.sack_blocks_recorded, 0)
          << "nothing arrived above the hole: no blocks to report";
      EXPECT_EQ(o.stats.sack_retransmits, 0);
    }
  }
}

TEST(LossScenario, PenultimateLossSackEarlyRetransmitBeatsNewRenoTimeout) {
  // The second-to-last segment is lost; exactly one segment lands above
  // the hole, producing ONE dupack carrying one SACK block. NewReno's
  // blind 3-dupack threshold can never fire, so it eats a 200 ms timeout.
  // The scoreboard knows only two segments are outstanding (RFC 5827
  // early retransmit) and repairs within the RTT — the headline case
  // where SACK converts an RTO stall into dupack-driven repair.
  const auto drop = drop_once({28});
  const ScenarioOutcome reno = run_loss_scenario(LossRecovery::kNewReno, 30, drop);
  const ScenarioOutcome sack = run_loss_scenario(LossRecovery::kSack, 30, drop);

  ASSERT_TRUE(reno.completed);
  EXPECT_EQ(reno.stats.rto_fired, 1) << "one dupack < threshold: NewReno must time out";
  EXPECT_EQ(reno.stats.rtx_dupack_segments, 0);
  EXPECT_GE(reno.completion.count_nanos(), kMinRto.count_nanos());

  ASSERT_TRUE(sack.completed);
  EXPECT_EQ(sack.stats.rto_fired, 0) << "early retransmit must preempt the timer";
  EXPECT_EQ(sack.stats.retransmit_segments, 1);
  EXPECT_EQ(sack.stats.rtx_dupack_segments, 1);
  EXPECT_EQ(sack.stats.sack_retransmits, 1);
  EXPECT_EQ(sack.stats.sack_blocks_recorded, 1);
  EXPECT_LT(sack.completion.count_nanos(), kMinRto.count_nanos());
  EXPECT_LT(sack.completion.count_nanos(), reno.completion.count_nanos());
}

TEST(LossScenario, LostRetransmissionFallsBackToTheTimerUnderBothLaws) {
  // The fast retransmission of the hole is ALSO lost (attempts 1 and 2
  // both dropped). Neither law re-retransmits on dupack evidence alone —
  // RFC 6675's high_rtx excludes re-sent holes precisely to avoid
  // retransmission storms — so both wait for the timer, whose go-back-N
  // resend (attempt 3) finally lands. The recovery COST differs sharply:
  // NewReno's inflated window keeps pushing new data the stalled receiver
  // must shed (its reorder buffer is bounded), all of which go-back-N then
  // re-sends; SACK's pipe accounting keeps the episode small.
  auto drop = [](std::int64_t segment, int attempt) {
    return segment == 20 && attempt <= 2;
  };
  const ScenarioOutcome reno = run_loss_scenario(LossRecovery::kNewReno, 60, drop);
  const ScenarioOutcome sack = run_loss_scenario(LossRecovery::kSack, 60, drop);
  for (const auto& [name, o] :
       {std::pair<const char*, const ScenarioOutcome&>{"newreno", reno}, {"sack", sack}}) {
    ASSERT_TRUE(o.completed) << name;
    EXPECT_EQ(o.dropped_frames, 2) << name;
    EXPECT_EQ(o.stats.rto_fired, 1) << name;
    EXPECT_EQ(o.stats.rtx_dupack_segments, 1)
        << name << ": exactly the dropped fast retransmit";
    EXPECT_GE(o.completion.count_nanos(), kMinRto.count_nanos()) << name;
  }
  EXPECT_EQ(sack.stats.sack_retransmits, 1);
  EXPECT_LT(sack.stats.retransmit_segments, reno.stats.retransmit_segments)
      << "pipe accounting must shrink the post-timeout go-back-N stream";
  EXPECT_LT(sack.stats.segments_sent, reno.stats.segments_sent)
      << "no inflation flood while the retransmission is in limbo";
}

}  // namespace
}  // namespace fbdcsim::transport
