// TracePointLog / flight recorder / canonical exports.
//
// The ring must retain the *last N* records in order with an exact total;
// the JSONL and Chrome-trace renderings are canonical (source-id order,
// byte-identical for equal inputs); and the two clocks never mix — wall
// spans and sim tracepoints are segregated by pid/category in the combined
// Chrome export, with the spans' JSON untouched by the tracepoints' presence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "fbdcsim/telemetry/export.h"
#include "fbdcsim/telemetry/tracepoint.h"

namespace fbdcsim::telemetry {
namespace {

TEST(TracePointLogTest, RecordsUpToCapacityInOrder) {
  TracePointLog log{7, 8};
  log.record(100, TracePointKind::kPacketDrop, 3, 1500, 9000);
  log.record(200, TracePointKind::kRtoFired, 0x101, 2920, 2);
  const TracePointDump dump = log.snapshot();
  EXPECT_EQ(dump.source_id, 7u);
  EXPECT_EQ(dump.total, 2);
  ASSERT_EQ(dump.records.size(), 2u);
  EXPECT_EQ(dump.records[0].t_ns, 100);
  EXPECT_EQ(dump.records[0].kind, TracePointKind::kPacketDrop);
  EXPECT_EQ(dump.records[0].entity, 3u);
  EXPECT_EQ(dump.records[0].a, 1500);
  EXPECT_EQ(dump.records[0].b, 9000);
  EXPECT_EQ(dump.records[1].t_ns, 200);
  EXPECT_EQ(dump.records[1].kind, TracePointKind::kRtoFired);
}

TEST(TracePointLogTest, TransportEventsMapToTheirRecorderKinds) {
  TracePointLog log{1, 16};
  using K = TransportEventKind;
  log.record({.kind = K::kRto, .tag = 0x101, .t_ns = 10, .a = 1448, .b = 2});
  log.record({.kind = K::kSackRecovery, .tag = 0x102, .t_ns = 20, .a = 7, .b = 9});
  log.record({.kind = K::kFastRecovery, .tag = 0x103, .t_ns = 30, .a = 5, .b = 6});
  log.record({.kind = K::kRecoveryExit, .tag = 0x104, .t_ns = 40, .a = 2896});
  log.record({.kind = K::kHandshakeRetry, .tag = 0x105, .t_ns = 50, .a = 1, .b = 3});
  // The ledger-only kinds leave the recorder untouched.
  for (const K kind : {K::kDemand, K::kAcked, K::kDrop, K::kRetransmit, K::kEcnReduction,
                       K::kEstablished, K::kSyn, K::kRelease}) {
    log.record({.kind = kind, .tag = 0x106, .t_ns = 60, .a = 1, .b = 1});
  }
  const TracePointDump dump = log.snapshot();
  EXPECT_EQ(dump.total, 5);
  ASSERT_EQ(dump.records.size(), 5u);
  const TracePointKind kinds[] = {TracePointKind::kRtoFired, TracePointKind::kFastRtxEnter,
                                  TracePointKind::kFastRtxEnter, TracePointKind::kFastRtxExit,
                                  TracePointKind::kHandshakeRetry};
  const std::int64_t as[] = {1448, 7, 5, 2896, 1};
  const std::int64_t bs[] = {2, 9, 6, 0, 3};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(dump.records[i].kind, kinds[i]) << i;
    EXPECT_EQ(dump.records[i].entity, 0x101u + i) << i;
    EXPECT_EQ(dump.records[i].t_ns, static_cast<std::int64_t>(10 * (i + 1))) << i;
    EXPECT_EQ(dump.records[i].a, as[i]) << i;
    EXPECT_EQ(dump.records[i].b, bs[i]) << i;
  }
}

TEST(TracePointLogTest, RingOverwritesOldestKeepingLastN) {
  TracePointLog log{1, 4};
  for (std::int64_t i = 0; i < 10; ++i) {
    log.record(i * 10, TracePointKind::kHandshakeRetry, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(log.total_recorded(), 10);
  const TracePointDump dump = log.snapshot();
  EXPECT_EQ(dump.total, 10);
  ASSERT_EQ(dump.records.size(), 4u);
  // The last four records (6..9), oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(dump.records[i].entity, 6 + i) << "slot " << i;
    EXPECT_EQ(dump.records[i].t_ns, static_cast<std::int64_t>(6 + i) * 10);
  }
}

TEST(TracePointLogTest, KindNamesAreStable) {
  EXPECT_STREQ(to_string(TracePointKind::kPacketDrop), "packet_drop");
  EXPECT_STREQ(to_string(TracePointKind::kRtoFired), "rto_fired");
  EXPECT_STREQ(to_string(TracePointKind::kFastRtxEnter), "fast_rtx_enter");
  EXPECT_STREQ(to_string(TracePointKind::kFastRtxExit), "fast_rtx_exit");
  EXPECT_STREQ(to_string(TracePointKind::kFaultEpoch), "fault_epoch");
  EXPECT_STREQ(to_string(TracePointKind::kHandshakeRetry), "handshake_retry");
}

TEST(TracePointJsonlTest, ExactFormatOneObjectPerLine) {
  TracePointLog log{42, 8};
  log.record(1'000'000, TracePointKind::kPacketDrop, 5, 1500, 24000);
  log.record(2'000'000, TracePointKind::kFaultEpoch, ~std::uint64_t{0},
             kFaultEpochBufferShrunk, 500'000);
  const std::string jsonl = tracepoints_to_jsonl({log.snapshot()});
  EXPECT_EQ(jsonl,
            "{\"source\":42,\"t_ns\":1000000,\"kind\":\"packet_drop\","
            "\"entity\":5,\"a\":1500,\"b\":24000}\n"
            "{\"source\":42,\"t_ns\":2000000,\"kind\":\"fault_epoch\","
            "\"entity\":18446744073709551615,\"a\":0,\"b\":500000}\n");
}

TEST(TracePointJsonlTest, DumpsMergeInCanonicalSourceOrder) {
  TracePointLog high{9, 4};
  TracePointLog low{2, 4};
  high.record(50, TracePointKind::kRtoFired, 1);
  low.record(999, TracePointKind::kPacketDrop, 1);
  // Passed out of order; the export must sort by source id, so the result
  // cannot depend on which rack's capture finished first.
  const std::string jsonl = tracepoints_to_jsonl({high.snapshot(), low.snapshot()});
  const std::size_t pos_low = jsonl.find("\"source\":2");
  const std::size_t pos_high = jsonl.find("\"source\":9");
  ASSERT_NE(pos_low, std::string::npos);
  ASSERT_NE(pos_high, std::string::npos);
  EXPECT_LT(pos_low, pos_high);
  // Byte-determinism: same dumps, same bytes, either input order.
  EXPECT_EQ(jsonl, tracepoints_to_jsonl({low.snapshot(), high.snapshot()}));
  EXPECT_EQ(tracepoints_to_jsonl({}), "");
}

TEST(TracePointLogTest, DumpWritesOneLinePerRetainedRecord) {
  TracePointLog log{3, 4};
  for (int i = 0; i < 6; ++i) {
    log.record(i, TracePointKind::kFastRtxEnter, static_cast<std::uint64_t>(i));
  }
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  log.dump(tmp);
  std::fflush(tmp);
  std::rewind(tmp);
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, tmp) != nullptr) out += buf;
  std::fclose(tmp);
  EXPECT_NE(out.find("source=3"), std::string::npos);
  EXPECT_NE(out.find("total=6"), std::string::npos);
  EXPECT_NE(out.find("retained=4"), std::string::npos);
  EXPECT_NE(out.find("fast_rtx_enter"), std::string::npos);
}

/// Registers two recorders in reverse source order, then terminates.
[[noreturn]] void terminate_with_two_recorders() {
  TracePointLog later{9, 4};
  TracePointLog earlier{4, 4};
  later.record(200, TracePointKind::kRtoFired, 0x101, 2920, 1);
  earlier.record(100, TracePointKind::kPacketDrop, 3, 1500, 9000);
  FlightRecorders::add(&later);
  FlightRecorders::add(&earlier);
  FlightRecorders::arm_crash_dump();
  std::terminate();
}

// The crash path: a terminate with recorders registered dumps every one of
// them to stderr, ordered by source id whatever the registration order.
TEST(TracePointLogDeathTest, CrashDumpListsRecordersInSourceOrder) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(terminate_with_two_recorders(),
               "flight recorder: source=4 (.|\n)*flight recorder: source=9 ");
}

// --- sim-clock vs wall-clock segregation in the Chrome export -------------

std::vector<TraceEvent> some_spans() {
  std::vector<TraceEvent> events;
  events.push_back({"capture", /*tid=*/1, /*depth=*/0, /*start_us=*/10, /*dur_us=*/500});
  events.push_back({"shard:web", /*tid=*/2, /*depth=*/1, /*start_us=*/20, /*dur_us=*/100});
  return events;
}

TracePointDump some_tracepoints() {
  TracePointLog log{11, 8};
  log.record(123'000, TracePointKind::kPacketDrop, 2, 1500, 30000);
  log.record(456'000, TracePointKind::kRtoFired, 0x205, 2920, 1);
  return log.snapshot();
}

TEST(ChromeTraceSegregationTest, SpansOnlyExportHasNoInstantEvents) {
  const std::string doc = to_chrome_trace(some_spans(), {});
  EXPECT_EQ(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(doc.find("fbdcsim.sim"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ChromeTraceSegregationTest, CombinedExportKeepsWallSpansByteIdentical) {
  // The spans' serialized form must not change when tracepoints ride along:
  // the combined document contains the spans-only document's event list as
  // a prefix, so wall-clock tooling sees exactly the same slices.
  const std::string spans_only = to_chrome_trace(some_spans(), {});
  const std::string combined = to_chrome_trace(some_spans(), {some_tracepoints()});
  const std::string open = "\"traceEvents\":[";
  const std::size_t spans_events = spans_only.find(open);
  const std::size_t combined_events = combined.find(open);
  ASSERT_NE(spans_events, std::string::npos);
  ASSERT_NE(combined_events, std::string::npos);
  // Everything between the list opener and the final "]}" in the spans-only
  // doc must appear verbatim in the combined one.
  const std::string span_list = spans_only.substr(
      spans_events + open.size(), spans_only.rfind("]}") - spans_events - open.size());
  EXPECT_NE(combined.find(span_list), std::string::npos);
}

TEST(ChromeTraceSegregationTest, ClocksNeverMix) {
  const std::string combined = to_chrome_trace(some_spans(), {some_tracepoints()});
  // Sim instants: pid 2, phase "i", their own category, tid = source id.
  EXPECT_NE(combined.find("\"cat\":\"fbdcsim.sim\",\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(combined.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(combined.find("\"tid\":11"), std::string::npos);
  // Wall spans stay phase "X" on pid 1 under the plain category.
  EXPECT_NE(combined.find("\"cat\":\"fbdcsim\",\"ph\":\"X\""), std::string::npos);
  // No hybrid: an instant event never carries the wall category and a span
  // never carries the sim one.
  EXPECT_EQ(combined.find("\"cat\":\"fbdcsim\",\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(combined.find("\"cat\":\"fbdcsim.sim\",\"ph\":\"X\""), std::string::npos);
  // Sim timestamps are sim-clock microseconds (123000 ns -> 123 us).
  EXPECT_NE(combined.find("\"ts\":123"), std::string::npos);
  // Determinism: repeated renders are byte-identical.
  EXPECT_EQ(combined, to_chrome_trace(some_spans(), {some_tracepoints()}));
}

TEST(ChromeTraceSegregationTest, EmptyTracepointListMatchesSpansOnly) {
  // The exact spans-only document, pinned byte for byte.
  const std::string expected =
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"name":"capture","cat":"fbdcsim","ph":"X","pid":1,"tid":1,"ts":10,"dur":500,)"
      R"("args":{"depth":0}},)"
      R"({"name":"shard:web","cat":"fbdcsim","ph":"X","pid":1,"tid":2,"ts":20,"dur":100,)"
      R"("args":{"depth":1}}]})";
  EXPECT_EQ(to_chrome_trace(some_spans(), {}), expected);
}

}  // namespace
}  // namespace fbdcsim::telemetry
