// Exact-pin causal attribution (DESIGN.md §14): a scripted drop with a
// known segment index must surface in the FlowLedger as a drop event with
// that exact seq/len and cause "scripted", claimed by the retransmission
// that repairs it — through fast recovery (dupack path) and through a tail
// RTO (go-back-N path) alike.
#include <cstdint>

#include <gtest/gtest.h>

#include "../support/scripted_loss.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/transport/params.h"

namespace fbdcsim::tests {
namespace {

using telemetry::FlowDropCause;
using telemetry::FlowEpisodeKind;
using telemetry::FlowLedger;
using telemetry::FlowLedgerDump;
using telemetry::FlowLedgerRecord;
using telemetry::FlowRtxKind;

constexpr std::int64_t kMss = transport::kMssBytes;

FlowLedgerRecord single_record(FlowLedger& ledger) {
  ledger.finalize();
  const FlowLedgerDump dump = ledger.snapshot();
  EXPECT_EQ(dump.records.size(), 1u);
  EXPECT_EQ(dump.stray_events, 0);
  return dump.records.empty() ? FlowLedgerRecord{} : dump.records[0];
}

TEST(LedgerAttributionPin, ScriptedHoleClaimedByFastRetransmit) {
  FlowLedger ledger{/*source_id=*/0, 64};
  const ScenarioOutcome out = run_loss_scenario(
      transport::LossRecovery::kSack, /*segments=*/8,
      [](std::int64_t segment, int attempt) { return segment == 3 && attempt == 1; },
      core::Duration::seconds(10), /*window_segments=*/9, &ledger);
  ASSERT_TRUE(out.completed);
  ASSERT_EQ(out.dropped_frames, 1);

  const FlowLedgerRecord r = single_record(ledger);
  EXPECT_TRUE(r.completed());
  EXPECT_EQ(r.bytes, 8 * kMss);
  // Exactly the scripted drop, at exactly segment 3's sequence range.
  ASSERT_EQ(r.drop_count, 1u);
  EXPECT_EQ(r.drops_total, 1);
  EXPECT_EQ(r.drops[0].seq, 3 * kMss);
  EXPECT_EQ(r.drops[0].len, kMss);
  EXPECT_EQ(r.drops[0].cause, FlowDropCause::kScripted);
  EXPECT_EQ(r.drops[0].port, -1);
  EXPECT_EQ(r.drops[0].switch_id, 0u);
  EXPECT_EQ(r.drops[0].fault_epoch, -1);
  EXPECT_TRUE(r.drops[0].claimed);
  // The dupack-path retransmission repairs it and carries its id. The
  // scoreboard also fires its rescue retransmission of the tail segment —
  // data that was never dropped, so it correctly carries NO attribution
  // (the negative control: repairs of undropped bytes stay cause-less).
  ASSERT_EQ(r.rtx_count, 2u);
  EXPECT_EQ(r.rtx_total, 2);
  EXPECT_EQ(r.rtxs[0].seq, 3 * kMss);
  EXPECT_EQ(r.rtxs[0].len, kMss);
  EXPECT_EQ(r.rtxs[0].kind, FlowRtxKind::kDupack);
  EXPECT_EQ(r.rtxs[0].cause_id, r.drops[0].id);
  EXPECT_GT(r.rtxs[0].t_ns, r.drops[0].t_ns);
  EXPECT_EQ(r.rtxs[1].seq, 7 * kMss);
  EXPECT_EQ(r.rtxs[1].cause_id, -1);
  EXPECT_EQ(r.rto_count, 0);
  // The repair ran inside a closed SACK-recovery episode.
  ASSERT_GE(r.episode_count, 1u);
  EXPECT_EQ(r.episodes[0].kind, FlowEpisodeKind::kSackRecovery);
  EXPECT_GE(r.episodes[0].end_ns, r.episodes[0].start_ns);
  EXPECT_LE(r.episodes[0].start_ns, r.rtxs[0].t_ns);
  EXPECT_GE(r.episodes[0].end_ns, r.rtxs[0].t_ns);
}

TEST(LedgerAttributionPin, TailLossRtoInheritsScriptedCause) {
  // Dropping the LAST segment leaves no later data to generate dupacks:
  // recovery must come from the retransmission timer, and the go-back-N
  // resend inherits the pinned scripted drop as its cause.
  FlowLedger ledger{0, 64};
  const ScenarioOutcome out = run_loss_scenario(
      transport::LossRecovery::kNewReno, /*segments=*/4,
      [](std::int64_t segment, int attempt) { return segment == 3 && attempt == 1; },
      core::Duration::seconds(10), /*window_segments=*/9, &ledger);
  ASSERT_TRUE(out.completed);
  ASSERT_EQ(out.dropped_frames, 1);

  const FlowLedgerRecord r = single_record(ledger);
  EXPECT_TRUE(r.completed());
  ASSERT_EQ(r.drop_count, 1u);
  EXPECT_EQ(r.drops[0].seq, 3 * kMss);
  EXPECT_EQ(r.drops[0].cause, FlowDropCause::kScripted);
  EXPECT_TRUE(r.drops[0].claimed);
  EXPECT_EQ(r.rto_count, 1);
  // Delayed ACKs can hold snd_una a segment below the hole, so the
  // go-back-N stream may start with delivered-but-unacked data; those
  // resends stay unattributed. The resend of the dropped range itself must
  // claim the scripted drop, exactly once.
  ASSERT_GE(r.rtx_count, 1u);
  int claims = 0;
  for (std::size_t i = 0; i < r.rtx_count; ++i) {
    EXPECT_EQ(r.rtxs[i].kind, FlowRtxKind::kRto) << "rtx " << i;
    if (r.rtxs[i].cause_id == r.drops[0].id) {
      ++claims;
      EXPECT_EQ(r.rtxs[i].seq, 3 * kMss);
      EXPECT_EQ(r.rtxs[i].len, kMss);
    } else {
      EXPECT_EQ(r.rtxs[i].cause_id, -1) << "rtx " << i;
      EXPECT_LT(r.rtxs[i].seq, 3 * kMss) << "only pre-hole resends may be cause-less";
    }
  }
  EXPECT_EQ(claims, 1);
  // The timeout left its point episode with the backoff step.
  bool saw_rto_episode = false;
  for (std::size_t i = 0; i < r.episode_count; ++i) {
    if (r.episodes[i].kind == FlowEpisodeKind::kRto) {
      saw_rto_episode = true;
      EXPECT_EQ(r.episodes[i].start_ns, r.episodes[i].end_ns);
    }
  }
  EXPECT_TRUE(saw_rto_episode);
}

TEST(LedgerAttributionPin, LostRetransmissionClaimsBothDropsInOrder) {
  // Segment 2 lost twice: the fast retransmit claims the original drop;
  // its own loss is repaired by the timer's go-back-N resend, which claims
  // the second drop (the earliest still-unclaimed overlap). Ids pin which
  // transmission each retransmission pays for, even when the go-back-N
  // stream resends more than the hole.
  FlowLedger ledger{0, 64};
  const ScenarioOutcome out = run_loss_scenario(
      transport::LossRecovery::kSack, /*segments=*/8,
      [](std::int64_t segment, int attempt) { return segment == 2 && attempt <= 2; },
      core::Duration::seconds(10), /*window_segments=*/9, &ledger);
  ASSERT_TRUE(out.completed);
  ASSERT_EQ(out.dropped_frames, 2);

  const FlowLedgerRecord r = single_record(ledger);
  ASSERT_EQ(r.drop_count, 2u);
  EXPECT_EQ(r.drops[0].seq, 2 * kMss);
  EXPECT_EQ(r.drops[1].seq, 2 * kMss);
  EXPECT_LT(r.drops[0].id, r.drops[1].id);
  EXPECT_TRUE(r.drops[0].claimed);
  EXPECT_TRUE(r.drops[1].claimed);
  ASSERT_GE(r.rtx_count, 2u);
  // First repair: the dupack-path retransmission, charged to the original.
  EXPECT_EQ(r.rtxs[0].kind, FlowRtxKind::kDupack);
  EXPECT_EQ(r.rtxs[0].seq, 2 * kMss);
  EXPECT_EQ(r.rtxs[0].cause_id, r.drops[0].id);
  // Exactly one later retransmission is charged to the lost repair.
  int charged_to_second = 0;
  for (std::size_t i = 1; i < r.rtx_count; ++i) {
    if (r.rtxs[i].cause_id == r.drops[1].id) {
      ++charged_to_second;
      EXPECT_EQ(r.rtxs[i].seq, 2 * kMss);
      EXPECT_EQ(r.rtxs[i].kind, FlowRtxKind::kRto);
    }
  }
  EXPECT_EQ(charged_to_second, 1);
  EXPECT_EQ(r.rto_count, 1);
}

}  // namespace
}  // namespace fbdcsim::tests
