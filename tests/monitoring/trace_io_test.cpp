#include "fbdcsim/monitoring/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "fbdcsim/core/rng.h"

namespace fbdcsim::monitoring {
namespace {

std::vector<core::PacketHeader> random_trace(std::size_t n, std::uint64_t seed = 3) {
  core::RngStream rng{seed};
  std::vector<core::PacketHeader> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::PacketHeader pkt;
    pkt.timestamp = core::TimePoint::from_nanos(static_cast<std::int64_t>(i) * 1000 +
                                                rng.uniform_int(0, 999));
    pkt.tuple = core::FiveTuple{
        core::Ipv4Addr{static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30))},
        core::Ipv4Addr{static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30))},
        static_cast<core::Port>(rng.uniform_int(1024, 65535)),
        static_cast<core::Port>(rng.uniform_int(1, 1023)),
        rng.bernoulli(0.9) ? core::Protocol::kTcp : core::Protocol::kUdp};
    pkt.payload_bytes = rng.uniform_int(0, 1460);
    pkt.frame_bytes = core::wire::tcp_frame_bytes(pkt.payload_bytes);
    pkt.flags = core::TcpFlags{.syn = rng.bernoulli(0.05), .ack = rng.bernoulli(0.8),
                               .fin = rng.bernoulli(0.05), .rst = rng.bernoulli(0.01),
                               .psh = rng.bernoulli(0.3)};
    trace.push_back(pkt);
  }
  return trace;
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const auto original = random_trace(500);
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));

  const TraceReadResult result = read_trace(buffer);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.trace.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(result.trace[i].timestamp, original[i].timestamp);
    EXPECT_EQ(result.trace[i].tuple, original[i].tuple);
    EXPECT_EQ(result.trace[i].frame_bytes, original[i].frame_bytes);
    EXPECT_EQ(result.trace[i].payload_bytes, original[i].payload_bytes);
    EXPECT_EQ(result.trace[i].flags, original[i].flags);
  }
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, {}));
  const TraceReadResult result = read_trace(buffer);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.trace.empty());
}

TEST(TraceIoTest, RejectsBadMagic) {
  std::stringstream buffer{"NOPE-this-is-not-a-trace"};
  const TraceReadResult result = read_trace(buffer);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("magic"), std::string::npos);
}

TEST(TraceIoTest, RejectsTruncation) {
  const auto original = random_trace(100);
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  const std::string full = buffer.str();
  // Chop off the tail (checksum + some records).
  std::stringstream truncated{full.substr(0, full.size() / 2)};
  const TraceReadResult result = read_trace(truncated);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.trace.empty());
}

TEST(TraceIoTest, HugeRecordCountIsAnErrorNotAThrow) {
  // A bare 16-byte header claiming 2^40 records: the reader must report
  // the missing records, not try to reserve room for them.
  std::string bytes = "FBTR";
  const std::uint32_t version = 1;
  const std::uint64_t count = std::uint64_t{1} << 40;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  ASSERT_EQ(bytes.size(), 16u);
  std::stringstream buffer{bytes};
  TraceReadResult result;
  ASSERT_NO_THROW(result = read_trace(buffer));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("truncated"), std::string::npos) << result.error;
  EXPECT_TRUE(result.trace.empty());
}

TEST(TraceIoTest, RejectsCorruption) {
  const auto original = random_trace(100);
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  std::string bytes = buffer.str();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  std::stringstream corrupted{bytes};
  const TraceReadResult result = read_trace(corrupted);
  EXPECT_FALSE(result.ok);
}

TEST(TraceIoTest, FileRoundTrip) {
  const auto original = random_trace(64);
  const std::string path = ::testing::TempDir() + "/fbdcsim_trace_test.fbtr";
  ASSERT_TRUE(write_trace_file(path, original));
  const TraceReadResult result = read_trace_file(path);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.trace.size(), original.size());
}

TEST(TraceIoTest, MissingFileIsError) {
  const TraceReadResult result = read_trace_file("/nonexistent/path/foo.fbtr");
  EXPECT_FALSE(result.ok);
}

TEST(TraceIoTest, CsvExport) {
  auto trace = random_trace(3);
  trace[0].flags = core::TcpFlags{.syn = true};
  std::stringstream out;
  ASSERT_TRUE(write_trace_csv(out, trace));
  const std::string csv = out.str();
  // Header + 3 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  EXPECT_NE(csv.find("timestamp_ns,src,sport"), std::string::npos);
  EXPECT_NE(csv.find(",S"), std::string::npos);  // SYN flag rendered
}

class TraceIoSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TraceIoSizeSweep, RoundTripAtSize) {
  const auto original = random_trace(GetParam(), 17 + GetParam());
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  const TraceReadResult result = read_trace(buffer);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.trace.size(), original.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, TraceIoSizeSweep,
                         ::testing::Values(1, 2, 7, 1000, 10'000));

}  // namespace
}  // namespace fbdcsim::monitoring
