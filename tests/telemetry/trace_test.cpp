#include "fbdcsim/telemetry/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "fbdcsim/telemetry/export.h"
#include "fbdcsim/telemetry/metrics.h"

namespace fbdcsim::telemetry {
namespace {

TEST(TraceSpanTest, RecordsOneEventPerSpan) {
  Tracer tracer;
  {
    TraceSpan span{"work", tracer};
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_GE(events[0].start_us, 0);
  EXPECT_GE(events[0].dur_us, 0);
}

TEST(TraceSpanTest, NestedSpansReportDepthAndOrder) {
  Tracer tracer;
  {
    TraceSpan outer{"outer", tracer};
    {
      TraceSpan mid{"mid", std::string{"detail"}, tracer};
      TraceSpan inner{"inner", tracer};
    }
  }
  const auto events = tracer.events();  // sorted by (start_us, tid, depth)
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].name, "mid:detail");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].depth, 2u);
  // A child opens no earlier than its parent and closes no later.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_us, events[i - 1].start_us);
    EXPECT_LE(events[i].start_us + events[i].dur_us,
              events[i - 1].start_us + events[i - 1].dur_us);
  }
}

TEST(TraceSpanTest, SequentialSpansReuseDepthZero) {
  Tracer tracer;
  { TraceSpan a{"a", tracer}; }
  { TraceSpan b{"b", tracer}; }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 0u);
}

TEST(TraceSpanTest, ClearDropsEvents) {
  Tracer tracer;
  { TraceSpan span{"x", tracer}; }
  EXPECT_EQ(tracer.size(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(ExportTest, ChromeTraceHasExpectedShape) {
  std::vector<TraceEvent> events;
  events.push_back({"shard \"0\"", 2, 1, 10, 5});
  const std::string json = to_chrome_trace(events, {});
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5"), std::string::npos);
  EXPECT_NE(json.find("shard \\\"0\\\""), std::string::npos);  // escaped
  EXPECT_EQ(json.find("shard \"0\""), std::string::npos);
}

TEST(ExportTest, JsonSegregatesSimFromWall) {
  MetricsRegistry reg;
  reg.counter("det", Kind::kSim).add(1);
  reg.counter("clock", Kind::kWall).add(2);
  const std::string json = to_json(reg.snapshot());
  const std::size_t sim = json.find("\"sim\":");
  const std::size_t wall = json.find("\"wall\":");
  ASSERT_NE(sim, std::string::npos);
  ASSERT_NE(wall, std::string::npos);
  const std::size_t det = json.find("\"det\":1");
  const std::size_t clock = json.find("\"clock\":2");
  ASSERT_NE(det, std::string::npos);
  ASSERT_NE(clock, std::string::npos);
  EXPECT_TRUE(sim < det && det < wall);
  EXPECT_TRUE(wall < clock);
}

TEST(ExportTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
}

}  // namespace
}  // namespace fbdcsim::telemetry
