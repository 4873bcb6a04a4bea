// Property tests for the event-engine ordering laws (DESIGN.md §6/§9).
//
// Each seeded case generates a random schedule — batches of events across
// bucket and wheel-window boundaries, children scheduled from inside
// running actions, horizon-bounded runs, occasional mid-action clear() —
// executes it on sim::Simulator and on the binary-heap oracle
// (tests/support/reference_scheduler.h), and asserts:
//
//   1. the Simulator log is identical to the oracle's log
//      (same events, same order, same timestamps);
//   2. execution times are globally nondecreasing;
//   3. equal-time events fire in schedule order (ids strictly increase
//      within every equal-time run);
//   4. run_until(h) executes exactly the events with time <= h, pins the
//      clock to h, and leaves strictly-later events pending.
//
// The seven instantiations below total 216 seeded cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "../support/reference_scheduler.h"
#include "fbdcsim/sim/simulator.h"

namespace fbdcsim::sim {
namespace {

struct LogEntry {
  std::int64_t at_ns;
  std::uint64_t id;
  bool operator==(const LogEntry&) const = default;
};

enum class Style {
  kMixed,     // deltas from sub-bucket to beyond the wheel window
  kFifo,      // few distinct times, many equal-time events
  kHorizon,   // interleaves many bounded runs with scheduling
  kClear,     // some actions call Simulator::clear()
  kBoundary,  // times pinned to bucket-boundary multiples +/- 1 ns
  kOverflow,  // mostly far-future events (overflow heap + migration)
  kArena,     // >1024 pending at once, run out of seq order (slot reuse)
};

constexpr std::int64_t kBucketNs = 4096;          // engine bucket width
constexpr std::int64_t kWindowNs = 1024 * kBucketNs;  // wheel span

template <typename Scheduler>
struct Driver {
  Scheduler sim;
  std::mt19937_64 rng;
  Style style;
  std::vector<LogEntry> log;
  std::uint64_t next_id{0};
  std::uint64_t event_budget{600};
  std::size_t max_pending{0};

  Driver(std::uint64_t seed, Style s) : rng{seed}, style{s} {
    if (style == Style::kArena) event_budget = 4000;
  }

  std::int64_t draw_delta() {
    switch (style) {
      case Style::kFifo:
        // 4 distinct times reused heavily -> long equal-time runs.
        return (rng() % 4) * 50'000;
      case Style::kBoundary: {
        const std::int64_t base = static_cast<std::int64_t>(1 + rng() % 2000) * kBucketNs;
        const std::int64_t jitter = static_cast<std::int64_t>(rng() % 3) - 1;
        return base + jitter;  // lands at a bucket edge, or 1 ns either side
      }
      case Style::kOverflow:
        if (rng() % 4 != 0) {
          // Beyond the wheel window: 1x..32x the span.
          return kWindowNs + static_cast<std::int64_t>(rng() % (31 * kWindowNs));
        }
        return static_cast<std::int64_t>(rng() % kWindowNs);
      case Style::kArena:
        // Uniform over the wheel, with some overflow: a random execution
        // order, so slots return to the free list far from seq order.
        if (rng() % 8 == 0) return kWindowNs + static_cast<std::int64_t>(rng() % kWindowNs);
        return static_cast<std::int64_t>(rng() % kWindowNs);
      case Style::kMixed:
      case Style::kHorizon:
      case Style::kClear:
      default:
        switch (rng() % 4) {
          case 0: return static_cast<std::int64_t>(rng() % 8);          // same/near time
          case 1: return static_cast<std::int64_t>(rng() % kBucketNs);  // within bucket
          case 2: return static_cast<std::int64_t>(rng() % kWindowNs);  // within wheel
          default: return static_cast<std::int64_t>(rng() % (8 * kWindowNs));  // overflow
        }
    }
  }

  void schedule_one() {
    if (next_id >= event_budget) return;
    const std::uint64_t id = next_id++;
    const bool allow_clear = style == Style::kClear && rng() % 37 == 0;
    const int children = static_cast<int>(rng() % 3);
    sim.schedule_after(Duration::nanos(draw_delta()), [this, id, children, allow_clear] {
      log.push_back(LogEntry{sim.now().count_nanos(), id});
      if (allow_clear) sim.clear();
      for (int c = 0; c < children; ++c) schedule_one();
    });
  }

  void run_scenario() {
    const int batches = 4;
    for (int b = 0; b < batches; ++b) {
      const std::uint64_t batch =
          style == Style::kArena ? 1100 + rng() % 200 : 20 + rng() % 40;
      for (std::uint64_t i = 0; i < batch; ++i) schedule_one();
      max_pending = std::max(max_pending, sim.pending_events());
      if (style == Style::kHorizon || rng() % 2 == 0) {
        sim.run_until(sim.now() + Duration::nanos(draw_delta()));
      }
    }
    sim.run();
  }
};

class EnginePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static Style style_for_suite(const std::string& suite) {
    if (suite.find("EqualTimeFifo") != std::string::npos) return Style::kFifo;
    if (suite.find("Horizon") != std::string::npos) return Style::kHorizon;
    if (suite.find("Clear") != std::string::npos) return Style::kClear;
    if (suite.find("Boundary") != std::string::npos) return Style::kBoundary;
    if (suite.find("Overflow") != std::string::npos) return Style::kOverflow;
    if (suite.find("Arena") != std::string::npos) return Style::kArena;
    return Style::kMixed;
  }

  void check_laws(const std::vector<LogEntry>& log) {
    for (std::size_t i = 1; i < log.size(); ++i) {
      ASSERT_GE(log[i].at_ns, log[i - 1].at_ns) << "time went backwards at index " << i;
      if (log[i].at_ns == log[i - 1].at_ns) {
        ASSERT_GT(log[i].id, log[i - 1].id)
            << "equal-time events out of schedule order at index " << i;
      }
    }
  }

  void run_and_compare() {
    const std::uint64_t seed = GetParam();
    const Style style = style_for_suite(
        ::testing::UnitTest::GetInstance()->current_test_info()->test_suite_name());

    Driver<Simulator> simulator{seed, style};
    simulator.run_scenario();
    Driver<tests::ReferenceScheduler> oracle{seed, style};
    oracle.run_scenario();

    ASSERT_FALSE(simulator.log.empty());
    ASSERT_EQ(simulator.log.size(), oracle.log.size());
    EXPECT_EQ(simulator.log, oracle.log);
    check_laws(simulator.log);
    EXPECT_EQ(simulator.sim.executed_events(), oracle.sim.executed_events());
    EXPECT_EQ(simulator.sim.pending_events(), 0u);
    EXPECT_EQ(oracle.sim.pending_events(), 0u);
    EXPECT_EQ(simulator.sim.now(), oracle.sim.now());
    if (style == Style::kArena) {
      EXPECT_GT(simulator.max_pending, 1024u) << "never held more than one arena chunk";
    }
  }
};

using MixedSchedules = EnginePropertyTest;
TEST_P(MixedSchedules, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, MixedSchedules, ::testing::Range<std::uint64_t>(0, 64));

using EqualTimeFifo = EnginePropertyTest;
TEST_P(EqualTimeFifo, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, EqualTimeFifo, ::testing::Range<std::uint64_t>(100, 132));

using HorizonRuns = EnginePropertyTest;
TEST_P(HorizonRuns, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, HorizonRuns, ::testing::Range<std::uint64_t>(200, 232));

using ClearDuringRun = EnginePropertyTest;
TEST_P(ClearDuringRun, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, ClearDuringRun, ::testing::Range<std::uint64_t>(300, 324));

using BucketBoundary = EnginePropertyTest;
TEST_P(BucketBoundary, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, BucketBoundary, ::testing::Range<std::uint64_t>(400, 424));

using OverflowHeap = EnginePropertyTest;
TEST_P(OverflowHeap, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, OverflowHeap, ::testing::Range<std::uint64_t>(500, 524));

using ArenaChurn = EnginePropertyTest;
TEST_P(ArenaChurn, MatchesReferenceAndOrderLaws) { run_and_compare(); }
INSTANTIATE_TEST_SUITE_P(Seeds, ArenaChurn, ::testing::Range<std::uint64_t>(700, 716));

// The horizon law needs direct inspection too (the differential comparison
// alone can't see *which* events stayed pending). It runs on the oracle as
// well, so the baseline the suites above compare against obeys it too.
template <typename Scheduler>
void check_horizon_law(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  Scheduler sim;
  std::vector<std::int64_t> times;
  for (int i = 0; i < 200; ++i) {
    const auto t = static_cast<std::int64_t>(rng() % (4 * kWindowNs));
    times.push_back(t);
    sim.schedule_at(TimePoint::from_nanos(t), [] {});
  }
  const auto horizon = static_cast<std::int64_t>(rng() % (4 * kWindowNs));
  sim.run_until(TimePoint::from_nanos(horizon));

  std::size_t expect_executed = 0;
  for (const std::int64_t t : times) {
    if (t <= horizon) ++expect_executed;
  }
  EXPECT_EQ(sim.executed_events(), expect_executed);
  EXPECT_EQ(sim.pending_events(), times.size() - expect_executed);
  EXPECT_EQ(sim.now(), TimePoint::from_nanos(horizon));

  sim.run();
  EXPECT_EQ(sim.executed_events(), times.size());
  EXPECT_EQ(sim.pending_events(), 0u);
}

class HorizonLawTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HorizonLawTest, StrictlyLaterEventsStayQueuedAndClockPins) {
  check_horizon_law<Simulator>(GetParam());
  check_horizon_law<tests::ReferenceScheduler>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HorizonLawTest, ::testing::Range<std::uint64_t>(600, 632));

}  // namespace
}  // namespace fbdcsim::sim
