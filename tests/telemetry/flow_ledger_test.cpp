// FlowLedger law suite (DESIGN.md §14): the lifecycle/attribution engine
// is fed TransportEvents directly — no simulator — so every law is
// pinned against hand-computable inputs, plus a randomized episode-law
// property sweep. The JSONL writer's exact text is pinned here too.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fbdcsim/core/addr.h"
#include "fbdcsim/core/ids.h"
#include "fbdcsim/core/packet.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/telemetry/tracepoint.h"

namespace fbdcsim::telemetry {
namespace {

using K = TransportEventKind;

constexpr std::int64_t kScripted = static_cast<std::int64_t>(FlowDropCause::kScripted);
constexpr std::int64_t kPathLoss = static_cast<std::int64_t>(FlowDropCause::kPathLoss);
constexpr std::int64_t kSwitchBuffer = static_cast<std::int64_t>(FlowDropCause::kSwitchBuffer);
constexpr std::int64_t kDupackRtx = static_cast<std::int64_t>(FlowRtxKind::kDupack);
constexpr std::int64_t kRtoRtx = static_cast<std::int64_t>(FlowRtxKind::kRto);

core::FiveTuple test_tuple(std::uint16_t src_port = 40'000) {
  return core::FiveTuple{core::Ipv4Addr{10, 0, 0, 1}, core::Ipv4Addr{10, 0, 0, 2},
                         src_port, 11'211, core::Protocol::kTcp};
}

/// Births a connection with round numbers: 10 us out-RTT, 20 us in-RTT,
/// 1.25 GB/s bottleneck (10 Gb/s NIC).
void birth(FlowLedger& ledger, std::uint32_t tag, std::int64_t t_ns = 1'000) {
  ledger.on_birth(tag, t_ns, test_tuple(), core::HostRole::kCacheLeader,
                  core::HostRole::kWeb, core::Locality::kIntraRack,
                  /*rtt_out_ns=*/10'000, /*rtt_in_ns=*/20'000,
                  /*bottleneck_bytes_per_sec=*/1'250'000'000);
}

TEST(FlowLedger, IdealFctExactArithmetic) {
  // 1 MB at 1.25 GB/s is exactly 800 us of serialization + one RTT.
  EXPECT_EQ(ideal_fct_ns(1'048'576, 10'000, 1'250'000'000),
            10'000 + 1'048'576LL * 1'000'000'000 / 1'250'000'000);
  // Degenerate inputs fall back to the RTT floor.
  EXPECT_EQ(ideal_fct_ns(0, 10'000, 1'250'000'000), 10'000);
  EXPECT_EQ(ideal_fct_ns(-5, 10'000, 1'250'000'000), 10'000);
  EXPECT_EQ(ideal_fct_ns(1'000, 10'000, 0), 10'000);
  // Large transfers must not overflow 64-bit intermediate math: 1 TiB at
  // 1.25 GB/s is bytes * 0.8 ns, exactly.
  EXPECT_EQ(ideal_fct_ns(std::int64_t{1} << 40, 0, 1'250'000'000),
            (std::int64_t{1} << 40) / 5 * 4);
}

TEST(FlowLedger, TransferLifecycleClosesOnFullAck) {
  FlowLedger ledger{/*source_id=*/7, /*capacity=*/8};
  birth(ledger, 0x101, /*t_ns=*/1'000);
  ledger.record({.kind = K::kSyn, .tag = 0x101, .t_ns = 1'000});
  ledger.record({.kind = K::kEstablished, .tag = 0x101, .t_ns = 11'000});
  ledger.record({.kind = K::kDemand, .dir = 0, .tag = 0x101, .t_ns = 20'000, .len = 4'096});
  EXPECT_EQ(ledger.live_transfers(), 1);
  // kAcked: seq = snd_una, a = bytes demanded on the stream.
  ledger.record({.kind = K::kAcked, .tag = 0x101, .t_ns = 25'000, .seq = 1'000, .a = 4'096});
  EXPECT_EQ(ledger.total_closed(), 0);  // partial: stays open
  ledger.record({.kind = K::kAcked, .tag = 0x101, .t_ns = 30'000, .seq = 4'096, .a = 4'096});
  EXPECT_EQ(ledger.total_closed(), 1);
  EXPECT_EQ(ledger.live_transfers(), 0);

  const FlowLedgerDump dump = ledger.snapshot();
  ASSERT_EQ(dump.records.size(), 1u);
  const FlowLedgerRecord& r = dump.records[0];
  EXPECT_EQ(r.flow_tag, 0x101u);
  EXPECT_EQ(r.dir, 0);
  EXPECT_EQ(r.role, core::HostRole::kCacheLeader);
  EXPECT_EQ(r.peer_role, core::HostRole::kWeb);
  EXPECT_EQ(r.locality, core::Locality::kIntraRack);
  EXPECT_EQ(r.conn_born_ns, 1'000);
  EXPECT_EQ(r.syn_sends, 1);
  EXPECT_EQ(r.established_ns, 11'000);
  EXPECT_EQ(r.start_ns, 20'000);
  EXPECT_EQ(r.completed_ns, 30'000);
  EXPECT_EQ(r.bytes, 4'096);
  EXPECT_EQ(r.rtt_ns, 10'000);  // dir 0 takes the out-RTT
  EXPECT_TRUE(r.completed());
  EXPECT_EQ(r.fct_ns(), 10'000);
  EXPECT_EQ(r.ideal_ns, ideal_fct_ns(4'096, 10'000, 1'250'000'000));
  EXPECT_GT(r.slowdown(), 0.0);
}

TEST(FlowLedger, InboundHalfUsesInRttAndOwnSequenceSpace) {
  FlowLedger ledger{1, 8};
  birth(ledger, 5);
  ledger.record({.kind = K::kDemand, .dir = 1, .tag = 5, .t_ns = 2'000, .len = 1'000});
  ledger.record(
      {.kind = K::kAcked, .dir = 1, .tag = 5, .t_ns = 9'000, .seq = 1'000, .a = 1'000});
  const FlowLedgerDump dump = ledger.snapshot();
  ASSERT_EQ(dump.records.size(), 1u);
  EXPECT_EQ(dump.records[0].dir, 1);
  EXPECT_EQ(dump.records[0].rtt_ns, 20'000);
}

TEST(FlowLedger, PipelinedDemandExtendsOpenTransfer) {
  FlowLedger ledger{1, 8};
  birth(ledger, 9);
  ledger.record({.kind = K::kDemand, .tag = 9, .t_ns = 2'000, .len = 1'000});
  // Arrives before the first closes.
  ledger.record({.kind = K::kDemand, .tag = 9, .t_ns = 3'000, .len = 500});
  // Acks only the first burst: open.
  ledger.record({.kind = K::kAcked, .tag = 9, .t_ns = 4'000, .seq = 1'000, .a = 1'500});
  EXPECT_EQ(ledger.total_closed(), 0);
  ledger.record({.kind = K::kAcked, .tag = 9, .t_ns = 5'000, .seq = 1'500, .a = 1'500});
  EXPECT_EQ(ledger.total_closed(), 1);
  const FlowLedgerDump dump = ledger.snapshot();
  ASSERT_EQ(dump.records.size(), 1u);
  EXPECT_EQ(dump.records[0].bytes, 1'500);
  EXPECT_EQ(dump.records[0].start_ns, 2'000);
}

TEST(FlowLedger, SequentialBurstsGetSeparateMonotoneRecords) {
  FlowLedger ledger{1, 8};
  birth(ledger, 9);
  ledger.record({.kind = K::kDemand, .tag = 9, .t_ns = 2'000, .len = 100});
  ledger.record({.kind = K::kAcked, .tag = 9, .t_ns = 3'000, .seq = 100, .a = 100});
  // After close: a fresh transfer. snd_una and demand are cumulative on the
  // stream.
  ledger.record({.kind = K::kDemand, .tag = 9, .t_ns = 10'000, .len = 200});
  ledger.record({.kind = K::kAcked, .tag = 9, .t_ns = 11'000, .seq = 300, .a = 300});
  const FlowLedgerDump dump = ledger.snapshot();
  ASSERT_EQ(dump.records.size(), 2u);
  EXPECT_EQ(dump.records[0].bytes, 100);
  EXPECT_EQ(dump.records[1].bytes, 200);
  EXPECT_LT(dump.records[0].id, dump.records[1].id);
  EXPECT_EQ(dump.records[1].start_ns, 10'000);
}

TEST(FlowLedger, ReleaseClosesOpenTransfersAsIncomplete) {
  FlowLedger ledger{1, 8};
  birth(ledger, 3);
  ledger.record({.kind = K::kDemand, .dir = 0, .tag = 3, .t_ns = 2'000, .len = 1'000});
  ledger.record({.kind = K::kDemand, .dir = 1, .tag = 3, .t_ns = 2'000, .len = 500});
  ledger.record({.kind = K::kRelease, .tag = 3, .t_ns = 50'000});
  EXPECT_EQ(ledger.total_closed(), 2);
  EXPECT_EQ(ledger.live_transfers(), 0);
  for (const FlowLedgerRecord& r : ledger.snapshot().records) {
    EXPECT_FALSE(r.completed());
    EXPECT_EQ(r.fct_ns(), -1);
    EXPECT_EQ(r.slowdown(), 0.0);
  }
  // The tag is forgotten: later events on it are strays, not crashes.
  ledger.record({.kind = K::kAcked, .tag = 3, .t_ns = 60'000, .seq = 2'000, .a = 2'000});
  ledger.record(
      {.kind = K::kDrop, .tag = 3, .t_ns = 60'000, .len = 100, .a = kPathLoss, .b = -1});
  EXPECT_EQ(ledger.stray_events(), 1);  // the drop; acked on dead tag is benign
}

TEST(FlowLedger, FinalizeFlushesInConnectionCreationOrder) {
  FlowLedger ledger{1, 8};
  birth(ledger, 20);
  birth(ledger, 10);  // born second despite the smaller tag
  ledger.record({.kind = K::kDemand, .tag = 10, .t_ns = 2'000, .len = 100});
  ledger.record({.kind = K::kDemand, .tag = 20, .t_ns = 1'000, .len = 100});
  ledger.finalize();
  const FlowLedgerDump dump = ledger.snapshot();
  ASSERT_EQ(dump.records.size(), 2u);
  EXPECT_EQ(dump.records[0].flow_tag, 20u);  // creation order, not tag order
  EXPECT_EQ(dump.records[1].flow_tag, 10u);
  EXPECT_FALSE(dump.records[0].completed());
}

TEST(FlowLedger, EventsWithoutOpenTransferCountAsStray) {
  FlowLedger ledger{1, 8};
  birth(ledger, 4);  // live conn, but no demand yet -> no open transfer
  ledger.record(
      {.kind = K::kDrop, .tag = 4, .t_ns = 1'000, .len = 100, .a = kSwitchBuffer, .b = 2});
  ledger.record({.kind = K::kRetransmit, .tag = 4, .t_ns = 2'000, .len = 100, .a = kDupackRtx});
  ledger.record(
      {.kind = K::kDrop, .tag = 99, .t_ns = 3'000, .len = 100, .a = kScripted, .b = -1});
  // Connection-scoped kinds on an unknown tag are ignored, not stray.
  ledger.record({.kind = K::kSyn, .tag = 99, .t_ns = 4'000});
  ledger.record({.kind = K::kHandshakeRetry, .tag = 4, .t_ns = 4'000, .a = 1});
  EXPECT_EQ(ledger.stray_events(), 3);
  EXPECT_EQ(ledger.total_closed(), 0);
}

TEST(LedgerAttribution, RetransmissionClaimsEarliestOverlappingDrop) {
  // Switch drops carry the ledger's switch id and fault epoch.
  FlowLedger ledger{1, 8, /*switch_id=*/42, kFaultEpochBufferShrunk};
  birth(ledger, 6);
  ledger.record({.kind = K::kDemand, .tag = 6, .t_ns = 2'000, .len = 10'000});
  // Two drops of the same segment (original + lost retransmission), then a
  // drop of a later segment.
  ledger.record(
      {.kind = K::kDrop, .tag = 6, .t_ns = 3'000, .len = 1'000, .a = kSwitchBuffer, .b = 5});
  ledger.record(
      {.kind = K::kDrop, .tag = 6, .t_ns = 4'000, .len = 1'000, .a = kPathLoss, .b = -1});
  ledger.record({.kind = K::kDrop,
                 .tag = 6,
                 .t_ns = 5'000,
                 .seq = 2'000,
                 .len = 1'000,
                 .a = kScripted,
                 .b = -1});
  // First repair of [0,1000) claims the EARLIEST unclaimed overlap; the
  // second claims the next; the third repair has nothing left to claim.
  for (const std::int64_t t : {6'000, 7'000, 8'000}) {
    ledger.record({.kind = K::kRetransmit, .tag = 6, .t_ns = t, .len = 1'000, .a = kDupackRtx});
  }
  ledger.record({.kind = K::kAcked, .tag = 6, .t_ns = 9'000, .seq = 10'000, .a = 10'000});

  const FlowLedgerDump dump = ledger.snapshot();
  ASSERT_EQ(dump.records.size(), 1u);
  const FlowLedgerRecord& r = dump.records[0];
  ASSERT_EQ(r.drop_count, 3u);
  ASSERT_EQ(r.rtx_count, 3u);
  EXPECT_EQ(r.rtxs[0].cause_id, r.drops[0].id);
  EXPECT_EQ(r.rtxs[1].cause_id, r.drops[1].id);
  EXPECT_EQ(r.rtxs[2].cause_id, -1);  // both overlapping drops already claimed
  EXPECT_TRUE(r.drops[0].claimed);
  EXPECT_TRUE(r.drops[1].claimed);
  EXPECT_FALSE(r.drops[2].claimed);  // [2000,3000) was never retransmitted
  EXPECT_EQ(r.drops[0].switch_id, 42u);
  EXPECT_EQ(r.drops[0].port, 5);
  EXPECT_EQ(r.drops[0].fault_epoch, kFaultEpochBufferShrunk);
  EXPECT_EQ(r.drops[1].fault_epoch, kFaultEpochPathLoss);
  EXPECT_EQ(r.drops[1].switch_id, 0u);
  EXPECT_EQ(r.drops[2].fault_epoch, -1);
  EXPECT_EQ(r.rtx_bytes, 3'000);
  EXPECT_EQ(r.drops_total, 3);
  EXPECT_EQ(r.rtx_total, 3);
}

TEST(LedgerAttribution, RtoStreamInheritsPinnedCause) {
  FlowLedger ledger{1, 8};
  birth(ledger, 6);
  ledger.record({.kind = K::kDemand, .tag = 6, .t_ns = 2'000, .len = 10'000});
  ledger.record({.kind = K::kAcked, .tag = 6, .t_ns = 2'500, .seq = 1'000, .a = 10'000});
  // The drop that stalls the window covers snd_una (the RTO event's seq).
  ledger.record({.kind = K::kDrop,
                 .tag = 6,
                 .t_ns = 3'000,
                 .seq = 1'000,
                 .len = 1'000,
                 .a = kScripted,
                 .b = -1});
  ledger.record({.kind = K::kRto, .tag = 6, .t_ns = 203'000, .seq = 1'000, .b = /*backoff=*/1});
  // Go-back-N: the first resend overlaps the drop and claims it directly;
  // later segments in the RTO stream don't overlap but inherit the pinned
  // cause — the timeout they ride on was caused by that drop.
  ledger.record({.kind = K::kRetransmit,
                 .tag = 6,
                 .t_ns = 203'001,
                 .seq = 1'000,
                 .len = 1'000,
                 .a = kRtoRtx});
  ledger.record({.kind = K::kRetransmit,
                 .tag = 6,
                 .t_ns = 203'002,
                 .seq = 2'000,
                 .len = 1'000,
                 .a = kRtoRtx});

  const FlowLedgerDump dump = [&] {
    ledger.finalize();
    return ledger.snapshot();
  }();
  ASSERT_EQ(dump.records.size(), 1u);
  const FlowLedgerRecord& r = dump.records[0];
  ASSERT_EQ(r.drop_count, 1u);
  ASSERT_EQ(r.rtx_count, 2u);
  EXPECT_EQ(r.rtxs[0].cause_id, r.drops[0].id);
  EXPECT_EQ(r.rtxs[1].cause_id, r.drops[0].id);  // inherited, no overlap
  EXPECT_EQ(r.rtxs[1].kind, FlowRtxKind::kRto);
  EXPECT_EQ(r.rto_count, 1);
  // The RTO leaves a point episode carrying the backoff step.
  ASSERT_EQ(r.episode_count, 1u);
  EXPECT_EQ(r.episodes[0].kind, FlowEpisodeKind::kRto);
  EXPECT_EQ(r.episodes[0].start_ns, r.episodes[0].end_ns);
  EXPECT_EQ(r.episodes[0].detail, 1);
}

TEST(LedgerAttribution, DropIdsStayMonotoneUnderRingEviction) {
  // Capacity 2: five transfers close, three are evicted. Attribution ids
  // must be ledger-wide and never renumbered, so the survivors' ids are
  // exactly 4 and 5 and each retransmission still references its own drop.
  FlowLedger ledger{1, /*capacity=*/2};
  for (std::uint32_t i = 0; i < 5; ++i) {
    const std::uint32_t tag = 100 + i;
    const std::int64_t t = i * 10'000;
    birth(ledger, tag, /*t_ns=*/t);
    ledger.record({.kind = K::kDemand, .tag = tag, .t_ns = t + 1, .len = 1'000});
    ledger.record(
        {.kind = K::kDrop, .tag = tag, .t_ns = t + 2, .len = 1'000, .a = kScripted, .b = -1});
    ledger.record(
        {.kind = K::kRetransmit, .tag = tag, .t_ns = t + 3, .len = 1'000, .a = kDupackRtx});
    ledger.record({.kind = K::kAcked, .tag = tag, .t_ns = t + 4, .seq = 1'000, .a = 1'000});
  }
  EXPECT_EQ(ledger.total_closed(), 5);
  const FlowLedgerDump dump = ledger.snapshot();
  EXPECT_EQ(dump.total, 5);
  ASSERT_EQ(dump.records.size(), 2u);  // ring kept the newest two, oldest-first
  ASSERT_EQ(dump.records[0].drop_count, 1u);
  ASSERT_EQ(dump.records[1].drop_count, 1u);
  EXPECT_EQ(dump.records[0].drops[0].id, 4);
  EXPECT_EQ(dump.records[1].drops[0].id, 5);
  EXPECT_EQ(dump.records[0].rtxs[0].cause_id, 4);
  EXPECT_EQ(dump.records[1].rtxs[0].cause_id, 5);
  EXPECT_EQ(dump.records[0].flow_tag, 103u);
  EXPECT_EQ(dump.records[1].flow_tag, 104u);
}

TEST(LedgerAttribution, DropIdsAllocatedEvenWhenArrayOverflows) {
  FlowLedger ledger{1, 4};
  birth(ledger, 2);
  ledger.record({.kind = K::kDemand, .tag = 2, .t_ns = 1'000, .len = 100'000});
  for (int i = 0; i < static_cast<int>(kFlowMaxDrops) + 3; ++i) {
    ledger.record({.kind = K::kDrop,
                   .tag = 2,
                   .t_ns = 2'000 + i,
                   .seq = i * 1'000,
                   .len = 1'000,
                   .a = kScripted,
                   .b = -1});
  }
  birth(ledger, 3);
  ledger.record({.kind = K::kDemand, .tag = 3, .t_ns = 9'000, .len = 100});
  ledger.record(
      {.kind = K::kDrop, .tag = 3, .t_ns = 9'500, .len = 100, .a = kScripted, .b = -1});
  ledger.finalize();
  const FlowLedgerDump dump = ledger.snapshot();
  ASSERT_EQ(dump.records.size(), 2u);
  const FlowLedgerRecord& a = dump.records[0];
  EXPECT_EQ(a.drops_total, static_cast<std::int64_t>(kFlowMaxDrops) + 3);
  EXPECT_EQ(a.drop_count, kFlowMaxDrops);  // array bounded, counter not
  // The overflowed drops still consumed ids, so the next conn's drop id
  // accounts for them — ids are allocation-order, never compacted.
  ASSERT_EQ(dump.records[1].drop_count, 1u);
  EXPECT_EQ(dump.records[1].drops[0].id,
            static_cast<std::int64_t>(kFlowMaxDrops) + 3 + 1);
}

TEST(LedgerEpisodes, ReenterIsIgnoredAndRtoClosesOpenEpisode) {
  FlowLedger ledger{1, 8};
  birth(ledger, 2);
  ledger.record({.kind = K::kDemand, .tag = 2, .t_ns = 1'000, .len = 10'000});
  ledger.record({.kind = K::kSackRecovery, .tag = 2, .t_ns = 2'000});
  ledger.record({.kind = K::kFastRecovery, .tag = 2, .t_ns = 3'000});  // ignored
  // Closes the open episode, adds its point.
  ledger.record({.kind = K::kRto, .tag = 2, .t_ns = 5'000, .b = 2});
  ledger.record({.kind = K::kFastRecovery, .tag = 2, .t_ns = 7'000});
  ledger.record({.kind = K::kRecoveryExit, .tag = 2, .t_ns = 8'000});
  ledger.record({.kind = K::kEcnReduction, .tag = 2, .t_ns = 9'000, .a = 14'480});
  ledger.record({.kind = K::kAcked, .tag = 2, .t_ns = 10'000, .seq = 10'000, .a = 10'000});

  const FlowLedgerDump dump = ledger.snapshot();
  ASSERT_EQ(dump.records.size(), 1u);
  const FlowLedgerRecord& r = dump.records[0];
  ASSERT_EQ(r.episode_count, 4u);
  EXPECT_EQ(r.episodes[0].kind, FlowEpisodeKind::kSackRecovery);
  EXPECT_EQ(r.episodes[0].start_ns, 2'000);
  EXPECT_EQ(r.episodes[0].end_ns, 5'000);  // closed by the RTO
  EXPECT_EQ(r.episodes[1].kind, FlowEpisodeKind::kRto);
  EXPECT_EQ(r.episodes[1].start_ns, 5'000);
  EXPECT_EQ(r.episodes[1].end_ns, 5'000);
  EXPECT_EQ(r.episodes[2].kind, FlowEpisodeKind::kFastRecovery);
  EXPECT_EQ(r.episodes[2].end_ns, 8'000);
  EXPECT_EQ(r.episodes[3].kind, FlowEpisodeKind::kEcnReduction);
  EXPECT_EQ(r.episodes[3].detail, 14'480);
  EXPECT_EQ(r.ecn_reductions, 1);
}

/// xorshift-free deterministic LCG — no Date/random machinery, same
/// sequence on every platform.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() { return s = s * 6364136223846793005ULL + 1442695040888963407ULL; }
  std::int64_t range(std::int64_t n) { return static_cast<std::int64_t>(next() >> 33) % n; }
};

TEST(LedgerEpisodes, PropertyIntervalEpisodesNeverOverlap) {
  // Random enter/exit/rto/ecn storms: in every closed record, interval
  // episodes (fast/sack recovery) must be well-formed and pairwise disjoint
  // in time, points must have end == start, and at most the LAST interval
  // may still be open (end == -1).
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Lcg rng{seed * 0x9E3779B97F4A7C15ULL};
    FlowLedger ledger{1, 64};
    birth(ledger, 8);
    ledger.record({.kind = K::kDemand, .tag = 8, .len = 1'000'000});
    std::int64_t t = 1;
    for (int step = 0; step < 200; ++step) {
      t += 1 + rng.range(1'000);
      switch (rng.range(4)) {
        case 0:
          ledger.record({.kind = rng.range(2) == 0 ? K::kFastRecovery : K::kSackRecovery,
                         .tag = 8,
                         .t_ns = t});
          break;
        case 1: ledger.record({.kind = K::kRecoveryExit, .tag = 8, .t_ns = t}); break;
        case 2: ledger.record({.kind = K::kRto, .tag = 8, .t_ns = t, .b = rng.range(6)}); break;
        default:
          ledger.record(
              {.kind = K::kEcnReduction, .tag = 8, .t_ns = t, .a = rng.range(100'000)});
          break;
      }
    }
    ledger.finalize();
    const FlowLedgerDump dump = ledger.snapshot();
    ASSERT_EQ(dump.records.size(), 1u) << "seed " << seed;
    const FlowLedgerRecord& r = dump.records[0];
    std::int64_t prev_interval_end = -1;
    for (std::size_t i = 0; i < r.episode_count; ++i) {
      const FlowEpisode& e = r.episodes[i];
      if (e.kind == FlowEpisodeKind::kRto || e.kind == FlowEpisodeKind::kEcnReduction) {
        EXPECT_EQ(e.end_ns, e.start_ns) << "seed " << seed << " episode " << i;
        continue;
      }
      // Interval: starts after the previous interval ended, and if open it
      // must be the final interval in the record.
      EXPECT_GE(e.start_ns, prev_interval_end) << "seed " << seed << " episode " << i;
      if (e.end_ns >= 0) {
        EXPECT_GE(e.end_ns, e.start_ns) << "seed " << seed << " episode " << i;
        prev_interval_end = e.end_ns;
      } else {
        for (std::size_t j = i + 1; j < r.episode_count; ++j) {
          EXPECT_NE(r.episodes[j].kind, FlowEpisodeKind::kFastRecovery)
              << "seed " << seed;
          EXPECT_NE(r.episodes[j].kind, FlowEpisodeKind::kSackRecovery)
              << "seed " << seed;
        }
      }
    }
  }
}

TEST(FlowLedgerJsonl, WriterTextIsExact) {
  FlowLedger ledger{/*source_id=*/12, 8, /*switch_id=*/42, kFaultEpochBufferShrunk};
  birth(ledger, 0x101);
  ledger.record({.kind = K::kSyn, .tag = 0x101, .t_ns = 1'000});
  ledger.record({.kind = K::kEstablished, .tag = 0x101, .t_ns = 11'000});
  ledger.record({.kind = K::kDemand, .tag = 0x101, .t_ns = 20'000, .len = 4'096});
  ledger.record({.kind = K::kDrop,
                 .tag = 0x101,
                 .t_ns = 21'000,
                 .len = 1'448,
                 .a = kSwitchBuffer,
                 .b = 3});
  ledger.record({.kind = K::kSackRecovery, .tag = 0x101, .t_ns = 22'000});
  ledger.record(
      {.kind = K::kRetransmit, .tag = 0x101, .t_ns = 23'000, .len = 1'448, .a = kDupackRtx});
  ledger.record({.kind = K::kRecoveryExit, .tag = 0x101, .t_ns = 24'000});
  ledger.record({.kind = K::kAcked, .tag = 0x101, .t_ns = 30'000, .seq = 4'096, .a = 4'096});
  // Incomplete inbound half.
  ledger.record({.kind = K::kDemand, .dir = 1, .tag = 0x101, .t_ns = 40'000, .len = 512});
  ledger.finalize();

  // One line per record, every field in schema order: the claimed drop, the
  // retransmission that names it (cause_id 1), the SACK episode, and the
  // inbound half left open (completed_ns -1).
  const std::string expected =
      R"({"source":12,"id":1,"tag":257,"dir":"out","role":"Cache-l","peer_role":"Web","locality":"Intra-Rack","tuple":"10.0.0.1:40000->10.0.0.2:11211/tcp","born_ns":1000,"syn_sends":1,"established_ns":11000,"start_ns":20000,"completed_ns":30000,"bytes":4096,"rtx_bytes":1448,"rtt_ns":10000,"bottleneck_bps":1250000000,"ideal_ns":13276,"drops_total":1,"rtx_total":1,"rto_count":0,"ecn_reductions":0,"drops":[{"id":1,"t_ns":21000,"seq":0,"len":1448,"cause":"switch_buffer","switch":42,"port":3,"fault_epoch":0,"claimed":1}],"rtx":[{"t_ns":23000,"seq":0,"len":1448,"kind":"dupack","cause_id":1}],"episodes":[{"kind":"sack_recovery","start_ns":22000,"end_ns":24000,"detail":0}]}
)"
      R"({"source":12,"id":2,"tag":257,"dir":"in","role":"Cache-l","peer_role":"Web","locality":"Intra-Rack","tuple":"10.0.0.1:40000->10.0.0.2:11211/tcp","born_ns":1000,"syn_sends":1,"established_ns":11000,"start_ns":40000,"completed_ns":-1,"bytes":512,"rtx_bytes":0,"rtt_ns":20000,"bottleneck_bps":1250000000,"ideal_ns":20409,"drops_total":0,"rtx_total":0,"rto_count":0,"ecn_reductions":0,"drops":[],"rtx":[],"episodes":[]}
)";
  EXPECT_EQ(flows_to_jsonl({ledger.snapshot()}), expected);
}

TEST(FlowLedgerJsonl, MultiSourceDumpsSortBySourceId) {
  FlowLedger a{/*source_id=*/30, 4};
  FlowLedger b{/*source_id=*/4, 4};
  for (FlowLedger* l : {&a, &b}) {
    birth(*l, 1);
    l->record({.kind = K::kDemand, .tag = 1, .t_ns = 1'000, .len = 100});
    l->record({.kind = K::kAcked, .tag = 1, .t_ns = 2'000, .seq = 100, .a = 100});
  }
  // Passed as (30, 4), written as source 4's line, then source 30's.
  const std::string expected =
      R"({"source":4,"id":1,"tag":1,"dir":"out","role":"Cache-l","peer_role":"Web","locality":"Intra-Rack","tuple":"10.0.0.1:40000->10.0.0.2:11211/tcp","born_ns":1000,"syn_sends":0,"established_ns":-1,"start_ns":1000,"completed_ns":2000,"bytes":100,"rtx_bytes":0,"rtt_ns":10000,"bottleneck_bps":1250000000,"ideal_ns":10080,"drops_total":0,"rtx_total":0,"rto_count":0,"ecn_reductions":0,"drops":[],"rtx":[],"episodes":[]}
)"
      R"({"source":30,"id":1,"tag":1,"dir":"out","role":"Cache-l","peer_role":"Web","locality":"Intra-Rack","tuple":"10.0.0.1:40000->10.0.0.2:11211/tcp","born_ns":1000,"syn_sends":0,"established_ns":-1,"start_ns":1000,"completed_ns":2000,"bytes":100,"rtx_bytes":0,"rtt_ns":10000,"bottleneck_bps":1250000000,"ideal_ns":10080,"drops_total":0,"rtx_total":0,"rto_count":0,"ecn_reductions":0,"drops":[],"rtx":[],"episodes":[]}
)";
  EXPECT_EQ(flows_to_jsonl({a.snapshot(), b.snapshot()}), expected);
}

TEST(FlowLedgerJsonl, EmptyDumpSerializesToNothing) {
  const FlowLedger ledger{9, 4};
  EXPECT_EQ(flows_to_jsonl({ledger.snapshot()}), "");
}

// ---- take(): the ring handed over instead of copied ----

/// Closes `n` transfers, each on its own connection with a drop and its
/// retransmission, so every record differs from its neighbours; then adds
/// one stray event.
void close_transfers(FlowLedger& ledger, int n) {
  for (int i = 0; i < n; ++i) {
    const auto tag = static_cast<std::uint32_t>(200 + i);
    const std::int64_t t = i * 10'000;
    const std::int64_t len = 100 * (i + 1);
    birth(ledger, tag, /*t_ns=*/t);
    ledger.record({.kind = K::kDemand, .tag = tag, .t_ns = t + 1, .len = len});
    ledger.record(
        {.kind = K::kDrop, .tag = tag, .t_ns = t + 2, .len = len, .a = kScripted, .b = -1});
    ledger.record(
        {.kind = K::kRetransmit, .tag = tag, .t_ns = t + 3, .len = len, .a = kDupackRtx});
    ledger.record({.kind = K::kAcked, .tag = tag, .t_ns = t + 4, .seq = len, .a = len});
  }
  ledger.record({.kind = K::kDrop, .tag = 9'999, .t_ns = 1, .len = 1, .a = kScripted});
}

/// take() must return exactly the dump a snapshot() just before it returns.
void expect_take_equals_snapshot(int closed, std::size_t capacity, std::size_t retained) {
  FlowLedger ledger{/*source_id=*/3, capacity};
  close_transfers(ledger, closed);
  const FlowLedgerDump before = ledger.snapshot();
  const FlowLedgerDump taken = ledger.take();
  EXPECT_EQ(taken.source_id, before.source_id);
  EXPECT_EQ(taken.total, closed);
  EXPECT_EQ(taken.total, before.total);
  EXPECT_EQ(taken.stray_events, 1);
  EXPECT_EQ(taken.stray_events, before.stray_events);
  ASSERT_EQ(before.records.size(), retained);
  ASSERT_EQ(taken.records.size(), retained);
  for (std::size_t i = 0; i < retained; ++i) {
    // The canonical JSONL line carries every field of a record.
    EXPECT_EQ(flows_to_jsonl({FlowLedgerDump{3, 1, 0, {taken.records[i]}}}),
              flows_to_jsonl({FlowLedgerDump{3, 1, 0, {before.records[i]}}}))
        << "record " << i;
  }
  // Oldest-first: the newest `retained` of the closed transfers, in order.
  for (std::size_t i = 0; i < retained; ++i) {
    EXPECT_EQ(taken.records[i].flow_tag, 200 + (closed - retained) + i) << "record " << i;
  }
}

TEST(LedgerTake, WrappedRingEqualsSnapshot) { expect_take_equals_snapshot(11, 4, 4); }

TEST(LedgerTake, ExactlyFullRingEqualsSnapshot) { expect_take_equals_snapshot(4, 4, 4); }

TEST(LedgerTake, PartialRingEqualsSnapshot) { expect_take_equals_snapshot(3, 8, 3); }

TEST(LedgerTake, EmptyRingEqualsSnapshot) { expect_take_equals_snapshot(0, 4, 0); }

TEST(LedgerTake, IsTerminalAndCountsLaterClosesAsDropped) {
  FlowLedger ledger{1, /*capacity=*/4};
  close_transfers(ledger, 6);
  birth(ledger, 7);
  ledger.record({.kind = K::kDemand, .tag = 7, .t_ns = 100'000, .len = 500});
  birth(ledger, 8);
  ledger.record({.kind = K::kDemand, .tag = 8, .t_ns = 100'000, .len = 500});
  ASSERT_EQ(ledger.take().records.size(), 4u);

  // A late close must not index the moved-out ring: it is counted, not kept.
  ledger.record(
      {.kind = K::kRetransmit, .tag = 7, .t_ns = 100'500, .len = 500, .a = kDupackRtx});
  ledger.record({.kind = K::kAcked, .tag = 7, .t_ns = 101'000, .seq = 500, .a = 500});
  ledger.finalize();  // closes tag 8's open transfer as incomplete
  EXPECT_EQ(ledger.dropped_after_take(), 2);
  EXPECT_EQ(ledger.total_closed(), 6);
  EXPECT_EQ(ledger.live_transfers(), 0);
  // Strays still count after take().
  ledger.record({.kind = K::kDrop, .tag = 7, .t_ns = 102'000, .len = 1, .a = kScripted});
  EXPECT_EQ(ledger.stray_events(), 2);

  const FlowLedgerDump snap = ledger.snapshot();
  EXPECT_TRUE(snap.records.empty());
  EXPECT_EQ(snap.total, 6);
  EXPECT_EQ(snap.stray_events, 2);
  const FlowLedgerDump again = ledger.take();
  EXPECT_TRUE(again.records.empty());
  EXPECT_EQ(again.total, 6);
  EXPECT_EQ(ledger.dropped_after_take(), 2);
}

}  // namespace
}  // namespace fbdcsim::telemetry
