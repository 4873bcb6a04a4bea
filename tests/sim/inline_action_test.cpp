#include "fbdcsim/sim/inline_action.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "fbdcsim/core/time.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/topology/standard_fleet.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

namespace fbdcsim::sim {
namespace {

/// A callable padded to exactly `Bytes` of capture state.
template <std::size_t Bytes>
struct Padded {
  std::array<std::byte, Bytes> pad{};
  int* hits;
  explicit Padded(int* h) : hits{h} {}
  void operator()() { ++*hits; }
};

TEST(InlineActionTest, SmallCaptureIsInlineAndInvokes) {
  int hits = 0;
  InlineAction a{[&hits] { ++hits; }};
  EXPECT_TRUE(a.is_inline());
  a();
  a();
  EXPECT_EQ(hits, 2);
}

TEST(InlineActionTest, CaptureSizesStraddlingThreshold) {
  int hits = 0;
  // sizeof(Padded<B>) = B + sizeof(int*); the inline boundary is
  // kInlineBytes total object size, not capture payload.
  InlineAction at_limit{Padded<InlineAction::kInlineBytes - sizeof(int*)>{&hits}};
  EXPECT_TRUE(at_limit.is_inline());
  InlineAction over_limit{Padded<InlineAction::kInlineBytes>{&hits}};
  EXPECT_FALSE(over_limit.is_inline());
  at_limit();
  over_limit();
  EXPECT_EQ(hits, 2);
}

TEST(InlineActionTest, InlineThresholdCoversIssueFloor) {
  // The issue requires >= 48 bytes of inline capture; the hot-path lambdas
  // (Wire emit, Hadoop stream chunks) capture exactly that much.
  static_assert(InlineAction::kInlineBytes >= 48);
  struct HotPathShape {  // [this, tuple, peer, payload, flags]-sized capture
    void* a;
    std::uint64_t b[4];
    std::uint32_t c;
    void operator()() {}
  };
  static_assert(InlineAction::fits_inline<HotPathShape>);
}

TEST(InlineActionTest, MoveOnlyCapture) {
  auto owned = std::make_unique<int>(99);
  int seen = 0;
  InlineAction a{[p = std::move(owned), &seen] { seen = *p; }};
  EXPECT_TRUE(a.is_inline());
  a();
  EXPECT_EQ(seen, 99);
}

TEST(InlineActionTest, MoveOnlyHeapFallback) {
  auto owned = std::make_unique<int>(7);
  std::array<std::byte, InlineAction::kInlineBytes> pad{};
  int seen = 0;
  InlineAction a{[p = std::move(owned), pad, &seen] { seen = *p + static_cast<int>(pad[0]); }};
  EXPECT_FALSE(a.is_inline());
  a();
  EXPECT_EQ(seen, 7);
}

struct DestructionProbe {
  int* destroyed;
  explicit DestructionProbe(int* d) : destroyed{d} {}
  DestructionProbe(DestructionProbe&& o) noexcept : destroyed{o.destroyed} { o.destroyed = nullptr; }
  DestructionProbe(const DestructionProbe& o) = default;
  ~DestructionProbe() {
    if (destroyed != nullptr) ++*destroyed;
  }
  void operator()() {}
};

TEST(InlineActionTest, DestroysInlineCaptureExactlyOnce) {
  int destroyed = 0;
  {
    InlineAction a{DestructionProbe{&destroyed}};
    EXPECT_TRUE(a.is_inline());
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineActionTest, DestroysHeapCaptureExactlyOnce) {
  struct BigProbe : DestructionProbe {
    std::array<std::byte, InlineAction::kInlineBytes> pad{};
    using DestructionProbe::DestructionProbe;
    void operator()() {}
  };
  int destroyed = 0;
  {
    InlineAction a{BigProbe{&destroyed}};
    EXPECT_FALSE(a.is_inline());
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineActionTest, MoveConstructRelocatesWithoutDoubleDestroy) {
  int destroyed = 0;
  int hits = 0;
  {
    InlineAction a{[probe = DestructionProbe{&destroyed}, &hits] { ++hits; }};
    InlineAction b{std::move(a)};
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): empty by contract
    EXPECT_TRUE(static_cast<bool>(b));
    b();
  }
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineActionTest, MoveAssignDestroysPreviousTarget) {
  int first_destroyed = 0;
  int second_destroyed = 0;
  InlineAction a{DestructionProbe{&first_destroyed}};
  a = InlineAction{DestructionProbe{&second_destroyed}};
  EXPECT_EQ(first_destroyed, 1);
  EXPECT_EQ(second_destroyed, 0);
  a = InlineAction{};
  EXPECT_EQ(second_destroyed, 1);
  EXPECT_FALSE(static_cast<bool>(a));
}

TEST(InlineActionTest, EmptyActionIsFalsy) {
  InlineAction a;
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_FALSE(a.is_inline());
}

#if FBDCSIM_TELEMETRY_ENABLED
TEST(InlineActionTest, RackHotPathSchedulesAreAllInline) {
  // A scorecard-style 1-second rack capture: every schedule made by
  // rack_sim, the switch, the service models, and PeriodicTimer must take
  // the inline path. gtest_discover_tests runs each TEST in its own
  // process, so resetting the global registry is safe here.
  telemetry::MetricsRegistry::global().reset();
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  workload::RackSimConfig cfg = workload::default_rack_config(
      fleet, core::HostRole::kCacheFollower, core::Duration::seconds(1));
  cfg.warmup = core::Duration::millis(100);
  workload::RackSimulation rack{fleet, cfg};
  const workload::RackSimResult result = rack.run();
  ASSERT_GT(result.events, 0u);

  const telemetry::Snapshot snap = telemetry::MetricsRegistry::global().snapshot();
  const auto* heap = snap.counter("sim.events_heap");
  const auto* inline_events = snap.counter("sim.events_inline");
  ASSERT_NE(heap, nullptr);
  ASSERT_NE(inline_events, nullptr);
  EXPECT_EQ(heap->value, 0);
  EXPECT_GT(inline_events->value, static_cast<std::int64_t>(result.events) / 2);
}

TEST(InlineActionTest, OversizedScheduleIsPublishedAsHeapEvent) {
  // The other side of the heap-free contract: a capture that falls back to
  // the heap must reach sim.events_heap, or a publish bug would let the
  // rack test's `== 0` pass without counting anything. Schedules made
  // before a run are published when it ends, and each run publishes only
  // the schedules made since the previous one.
  telemetry::MetricsRegistry::global().reset();
  using Oversized = Padded<InlineAction::kInlineBytes>;
  static_assert(!InlineAction::fits_inline<Oversized>);
  int hits = 0;
  Simulator sim;
  sim.schedule_at(core::TimePoint::zero() + core::Duration::micros(1), Oversized{&hits});
  sim.schedule_at(core::TimePoint::zero() + core::Duration::micros(2), [&hits] { ++hits; });
  const auto counter = [](const char* name) {
    const telemetry::Snapshot snap = telemetry::MetricsRegistry::global().snapshot();
    const auto* c = snap.counter(name);
    return c == nullptr ? std::int64_t{-1} : c->value;
  };
  EXPECT_LE(counter("sim.events_heap"), 0) << "published at run end, not per schedule";

  sim.run_until(core::TimePoint::zero() + core::Duration::millis(1));
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(counter("sim.events_heap"), 1);
  EXPECT_EQ(counter("sim.events_inline"), 1);

  sim.schedule_after(core::Duration::micros(1), Oversized{&hits});
  sim.schedule_after(core::Duration::micros(1), Oversized{&hits});
  sim.run();
  EXPECT_EQ(hits, 4);
  EXPECT_EQ(counter("sim.events_heap"), 3);
  EXPECT_EQ(counter("sim.events_inline"), 1);
}
#endif

}  // namespace
}  // namespace fbdcsim::sim
