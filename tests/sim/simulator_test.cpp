#include "fbdcsim/sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fbdcsim::sim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_seconds(3.0), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::from_seconds(2.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint::from_seconds(3.0));
}

TEST(SimulatorTest, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_seconds(1.0);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimePoint fired;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] {
    sim.schedule_after(Duration::seconds(2), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, TimePoint::from_seconds(3.0));
}

TEST(SimulatorTest, CannotScheduleInPast) {
  Simulator sim;
  sim.schedule_at(TimePoint::from_seconds(1.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint::from_seconds(0.5), [] {}), std::invalid_argument);
}

TEST(SimulatorTest, RejectsEmptyActionWhenScheduled) {
  // An empty action is refused at the schedule, before it takes a slot,
  // not when the loop reaches it and has nothing to call.
  Simulator sim;
  int ran = 0;
  sim.schedule_at(TimePoint::from_nanos(10), [&ran] { ++ran; });
  Simulator::Action empty;
  EXPECT_THROW(sim.schedule_at(TimePoint::from_nanos(20), std::move(empty)),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(Duration::nanos(5), Simulator::Action{}),
               std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { ++fired; });
  sim.schedule_at(TimePoint::from_seconds(5.0), [&] { ++fired; });
  sim.run_until(TimePoint::from_seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::from_seconds(2.0));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(TimePoint::from_seconds(10.0));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtHorizonFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(TimePoint::from_seconds(2.0), [&] { fired = true; });
  sim.run_until(TimePoint::from_seconds(2.0));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, ClearDropsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { ++fired; });
  sim.clear();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, ExecutedEventsCount) {
  Simulator sim;
  for (int i = 0; i < 17; ++i) sim.schedule_at(TimePoint::from_seconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 17u);
}

TEST(SimulatorTest, CascadingEvents) {
  // An event chain: each event schedules the next until a bound.
  Simulator sim;
  int count = 0;
  std::function<void()> step = [&] {
    if (++count < 100) sim.schedule_after(Duration::millis(1), step);
  };
  sim.schedule_at(TimePoint::zero(), step);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), TimePoint::from_nanos(99'000'000));
}

TEST(PeriodicTimerTest, FiresAtPeriod) {
  Simulator sim;
  std::vector<TimePoint> fires;
  PeriodicTimer timer{sim, Duration::millis(10), [&](TimePoint t) { fires.push_back(t); }};
  sim.run_until(TimePoint::from_nanos(35'000'000));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], TimePoint::from_nanos(10'000'000));
  EXPECT_EQ(fires[2], TimePoint::from_nanos(30'000'000));
}

TEST(PeriodicTimerTest, CancelStopsFiring) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer{sim, Duration::millis(10), [&](TimePoint) { ++fires; }};
  sim.schedule_at(TimePoint::from_nanos(25'000'000), [&] { timer.cancel(); });
  sim.run_until(TimePoint::from_nanos(100'000'000));
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimerTest, RejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(PeriodicTimer(sim, Duration{}, [](TimePoint) {}), std::invalid_argument);
}

TEST(PeriodicTimerTest, RejectsEmptyTick) {
  Simulator sim;
  EXPECT_THROW(PeriodicTimer(sim, Duration::millis(10), PeriodicTimer::Tick{}),
               std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until(TimePoint::from_nanos(50'000'000));
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(PeriodicTimerTest, TickCancellingOwnTimerDoesNotReschedule) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer{sim, Duration::millis(10), [&](TimePoint) {
    ++fires;
    timer.cancel();  // re-entrant: cancel from inside our own tick
  }};
  sim.run_until(TimePoint::from_nanos(100'000'000));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(PeriodicTimerTest, DestroyingTimerInsideOwnTickIsSafe) {
  // The pre-rewrite implementation kept the tick callback inside the timer
  // object; destroying the timer mid-tick destroyed the executing closure.
  Simulator sim;
  int fires = 0;
  PeriodicTimer* timer = nullptr;
  timer = new PeriodicTimer{sim, Duration::millis(10), [&](TimePoint) {
    ++fires;
    delete timer;  // destroys the PeriodicTimer while its tick runs
    timer = nullptr;
  }};
  sim.run_until(TimePoint::from_nanos(100'000'000));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(timer, nullptr);
}

TEST(PeriodicTimerTest, SimulatorClearDuringTickIsSafe) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer{sim, Duration::millis(10), [&](TimePoint) {
    if (++fires == 3) sim.clear();
  }};
  sim.run_until(TimePoint::from_nanos(200'000'000));
  // clear() dropped the pending re-arm event, but the tick itself re-arms
  // after returning; cancel to stop the chain and drain.
  EXPECT_GE(fires, 3);
  timer.cancel();
  sim.clear();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ClearInsideActionDropsQueueButKeepsNewSchedules) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_seconds(2.0), [&] { order.push_back(2); });
  sim.schedule_at(TimePoint::from_seconds(3.0), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] {
    order.push_back(1);
    sim.clear();  // drops the t=2 and t=3 events
    sim.schedule_after(Duration::seconds(4), [&] { order.push_back(5); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
  EXPECT_EQ(sim.now(), TimePoint::from_seconds(5.0));
}

TEST(SimulatorTest, EventsBeyondWheelWindowFireInOrder) {
  // The wheel covers ~4.2 ms; these events start in the overflow heap and
  // must migrate into the wheel as the cursor advances.
  Simulator sim;
  std::vector<std::int64_t> fired;
  for (const std::int64_t ms : {5'000, 1, 900, 40, 7, 12'000, 300}) {
    sim.schedule_at(TimePoint::from_nanos(ms * 1'000'000),
                    [&fired, ms] { fired.push_back(ms); });
  }
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1, 7, 40, 300, 900, 5'000, 12'000}));
}

TEST(SimulatorTest, EqualTimeFifoAcrossBucketBoundary) {
  // Events exactly on a bucket edge (4096-ns multiples) keep FIFO order.
  Simulator sim;
  std::vector<int> order;
  const TimePoint edge = TimePoint::from_nanos(4096 * 7);
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(edge, [&order, i] { order.push_back(i); });
  }
  sim.schedule_at(TimePoint::from_nanos(4096 * 7 - 1), [&order] { order.push_back(-1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimulatorTest, ScheduleIntoPartiallyDrainedBucketAfterHorizonStop) {
  // Stop mid-bucket, then schedule an event into the same bucket earlier
  // than the still-pending one: the new event must fire first.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_nanos(100), [&] { order.push_back(0); });
  sim.schedule_at(TimePoint::from_nanos(3'000), [&] { order.push_back(2); });
  sim.run_until(TimePoint::from_nanos(1'000));  // mid-bucket: t=3000 pending
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.schedule_at(TimePoint::from_nanos(2'000), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorTest, ActionSchedulingAtCurrentTimeRunsThisDrain) {
  // A chain of same-time schedules from inside actions (the active-heap
  // path) drains fully before time advances.
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) sim.schedule_at(sim.now(), recurse);
  };
  sim.schedule_at(TimePoint::from_nanos(5'000), recurse);
  sim.schedule_at(TimePoint::from_nanos(5'001), [&] { EXPECT_EQ(depth, 50); });
  sim.run();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(sim.now(), TimePoint::from_nanos(5'001));
}

TEST(SimulatorTest, LongIdleGapsJumpNotScan) {
  // Day-scale gaps between events: the cursor must jump (via the overflow
  // heap) rather than scan ~10^10 empty buckets. Completes instantly iff
  // the jump works.
  Simulator sim;
  int fired = 0;
  TimePoint t = TimePoint::zero();
  for (int i = 0; i < 20; ++i) {
    t += Duration::hours(1);
    sim.schedule_at(t, [&] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 20);
  EXPECT_EQ(sim.now(), TimePoint::zero() + Duration::hours(20));
}

TEST(SimulatorTest, PendingEventsTracksAllTiers) {
  Simulator sim;
  sim.schedule_at(TimePoint::from_nanos(10), [] {});           // wheel
  sim.schedule_at(TimePoint::from_nanos(100'000), [] {});      // wheel, later bucket
  sim.schedule_at(TimePoint::from_seconds(10.0), [] {});       // overflow
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run_until(TimePoint::from_nanos(50));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(SimulatorTest, EqualTimeFifoWhenSlotsComeBackOutOfOrder) {
  // Equal-time order must come from the schedule order alone, never from
  // the arena slot. Running kEvents events in slot order pushes their
  // slots onto the LIFO free list in ascending order, so the next
  // kEvents schedules take slots in descending order, across more than
  // one 1024-slot chunk. Those equal-time events then go through the two
  // places where keys are compared: the overflow heap, and the sort of a
  // bucket made dirty by an earlier time appended after them.
  constexpr int kEvents = 1500;
  struct Record {
    std::vector<int>* order;
    std::vector<const void*>* where;  // the action's own slot
    int i;
    void operator()() {
      order->push_back(i);
      where->push_back(this);
    }
  };
  const auto expect_fifo = [](Duration ahead, bool dirty_bucket) {
    Simulator sim;
    for (int i = 0; i < kEvents; ++i) sim.schedule_at(TimePoint::from_nanos(1 + i), [] {});
    sim.run();
    // Mid-bucket, so t - 1 ns falls in the same 4096 ns bucket.
    const TimePoint t = TimePoint::from_nanos(((ahead.count_nanos() >> 12) << 12) + 2048);
    std::vector<int> order;
    std::vector<const void*> where;
    for (int i = 0; i < kEvents; ++i) sim.schedule_at(t, Record{&order, &where, i});
    if (dirty_bucket) sim.schedule_at(t - Duration::nanos(1), [] {});
    sim.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
    for (int i = 0; i < kEvents; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    // The premise: within a chunk, slots came back at descending
    // addresses (only the step from one chunk into another may differ).
    int descending = 0;
    for (std::size_t k = 1; k < where.size(); ++k) {
      if (std::less<const void*>{}(where[k], where[k - 1])) ++descending;
    }
    EXPECT_GE(descending, kEvents - 2);
  };

  expect_fifo(Duration::millis(10), /*dirty_bucket=*/false);  // overflow heap
  expect_fifo(Duration::micros(10), /*dirty_bucket=*/true);   // bucket sort
}

TEST(SimulatorTest, MoveOnlyCallablesWork) {
  Simulator sim;
  auto payload = std::make_unique<int>(17);
  int seen = 0;
  sim.schedule_at(TimePoint::from_nanos(5), [p = std::move(payload), &seen] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 17);
}

// ---------------------------------------------------------------------------
// Slot-arena lifetimes: every action is built once in its arena slot, never
// moved while queued, and destroyed exactly once — when it has run, when
// clear() drops it, or when the Simulator dies with it still pending.

/// Counts how often the owning copy is destroyed and how often it moved.
class LifeProbe {
 public:
  LifeProbe(int* destroyed, int* moves) : destroyed_{destroyed}, moves_{moves} {}
  LifeProbe(LifeProbe&& other) noexcept
      : destroyed_{std::exchange(other.destroyed_, nullptr)}, moves_{other.moves_} {
    if (moves_ != nullptr) ++*moves_;
  }
  LifeProbe(const LifeProbe&) = delete;
  LifeProbe& operator=(const LifeProbe&) = delete;
  LifeProbe& operator=(LifeProbe&&) = delete;
  ~LifeProbe() {
    if (destroyed_ != nullptr) ++*destroyed_;
  }

 private:
  int* destroyed_;
  int* moves_;
};

TEST(SlotArenaLifetime, RunActionIsDestroyedOnceAfterRunning) {
  Simulator sim;
  int destroyed = 0;
  int moves = 0;
  int ran = 0;
  sim.schedule_at(TimePoint::from_nanos(10), [p = LifeProbe{&destroyed, nullptr}, &ran,
                                              &destroyed] {
    ++ran;
    EXPECT_EQ(destroyed, 0) << "destroyed before it ran";
  });
  sim.schedule_at(TimePoint::from_nanos(20),
                  [p = LifeProbe{&destroyed, &moves}, &ran] { ++ran; });
  // The lambda temporary is moved once, into its slot; the Action overload
  // adds the one move from the pre-built InlineAction into the slot.
  EXPECT_EQ(moves, 1);
  int action_moves = 0;
  Simulator::Action prebuilt{[p = LifeProbe{&destroyed, &action_moves}, &ran] { ++ran; }};
  sim.schedule_at(TimePoint::from_nanos(30), std::move(prebuilt));
  EXPECT_EQ(action_moves, 2);
  sim.run();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(destroyed, 3);
  EXPECT_EQ(moves, 1);
  EXPECT_EQ(action_moves, 2);
}

TEST(SlotArenaLifetime, QueuedActionsNeverMove) {
  // Every tier moves keys, never actions: bucket sorts (out-of-order
  // times), the active heap (schedules into the draining bucket), the
  // overflow heap and its migration, and a horizon stop's fold-back.
  Simulator sim;
  int destroyed = 0;
  int moves = 0;
  int ran = 0;
  const auto probe = [&] { return LifeProbe{&destroyed, &moves}; };
  for (int i = 0; i < 300; ++i) {
    const std::int64_t ns = (i * 7919) % 3000 + (i % 5 == 0 ? 20'000'000 : 0);
    sim.schedule_at(TimePoint::from_nanos(ns), [p = probe(), &sim, &ran, &probe] {
      ++ran;
      sim.schedule_after(Duration::nanos(1), [q = probe(), &ran] { ++ran; });
    });
  }
  sim.run_until(TimePoint::from_nanos(1'500));
  sim.run();
  EXPECT_EQ(ran, 600);
  EXPECT_EQ(destroyed, 600);
  EXPECT_EQ(moves, 600) << "an action moved after it was built in its slot";
}

TEST(SlotArenaLifetime, PendingAtHorizonIsDestroyedOnceWhenItLaterRuns) {
  Simulator sim;
  int destroyed = 0;
  bool ran = false;
  sim.schedule_at(TimePoint::from_seconds(5.0),
                  [p = LifeProbe{&destroyed, nullptr}, &ran] { ran = true; });
  sim.run_until(TimePoint::from_seconds(1.0));
  EXPECT_FALSE(ran);
  EXPECT_EQ(destroyed, 0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(TimePoint::from_seconds(10.0));
  EXPECT_TRUE(ran);
  EXPECT_EQ(destroyed, 1);
}

TEST(SlotArenaLifetime, ClearFromOutsideDestroysEveryTierOnce) {
  Simulator sim;
  int destroyed = 0;
  int ran = 0;
  const auto add = [&](std::int64_t ns) {
    sim.schedule_at(TimePoint::from_nanos(ns),
                    [p = LifeProbe{&destroyed, nullptr}, &ran] { ++ran; });
  };
  add(100);            // wheel, executed before the horizon
  add(2'000);          // same bucket, left pending mid-bucket
  add(50'000);         // later wheel bucket
  add(9'000'000'000);  // overflow heap
  sim.run_until(TimePoint::from_nanos(1'000));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(destroyed, 1);
  sim.clear();
  EXPECT_EQ(destroyed, 4);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(destroyed, 4);
}

TEST(SlotArenaLifetime, ClearFromInsideActionDestroysEachOnce) {
  Simulator sim;
  int destroyed = 0;
  int executing_destroyed = 0;
  int ran = 0;
  for (const std::int64_t ns : {std::int64_t{2'000}, std::int64_t{2'500}, std::int64_t{90'000},
                                 std::int64_t{8'000'000'000}}) {
    sim.schedule_at(TimePoint::from_nanos(ns),
                    [p = LifeProbe{&destroyed, nullptr}, &ran] { ++ran; });
  }
  sim.schedule_at(TimePoint::from_nanos(1'000), [p = LifeProbe{&executing_destroyed, nullptr},
                                                 &sim, &destroyed, &executing_destroyed] {
    // Schedules into the draining bucket first, so clear() also empties
    // the active heap.
    sim.schedule_at(sim.now(), [q = LifeProbe{&destroyed, nullptr}] {});
    sim.clear();
    EXPECT_EQ(destroyed, 5);
    EXPECT_EQ(executing_destroyed, 0) << "clear() destroyed the executing action";
  });
  sim.run();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(destroyed, 5);
  EXPECT_EQ(executing_destroyed, 1);
}

TEST(SlotArenaLifetime, DestroyingSimulatorDestroysPendingOnce) {
  int destroyed = 0;
  {
    Simulator sim;
    for (int i = 0; i < 3000; ++i) {
      // The first 500 fall at or before the horizon; the rest spread over
      // the wheel and the overflow heap.
      const std::int64_t ns = 1 + i + (i < 500 ? 0 : (i % 3) * 5'000'000);
      sim.schedule_at(TimePoint::from_nanos(ns), [p = LifeProbe{&destroyed, nullptr}] {});
    }
    sim.run_until(TimePoint::from_nanos(500));
    EXPECT_EQ(destroyed, 500);
  }
  EXPECT_EQ(destroyed, 3000);
}

TEST(SlotArenaLifetime, MixedTrivialAndNonTrivialCapturesAreDestroyedOnce) {
  // Trivially destructible actions skip the destroy call. Slots that held
  // one and then a LifeProbe, or the reverse, must still destroy every
  // probe exactly once: after it runs, in clear(), and in ~Simulator. The
  // oversized trivially destructible capture falls back to the heap and
  // must still be freed (LeakSanitizer checks that in ASan builds).
  int destroyed = 0;
  int probes = 0;
  int probes_ran = 0;
  int ran = 0;
  {
    Simulator sim;
    const auto fill = [&](int round) {
      for (int i = 0; i < 1500; ++i) {
        const TimePoint at =
            sim.now() + Duration::nanos(1 + (i * 7) % 3000 + (i % 9 == 0 ? 10'000'000 : 0));
        if ((i + round) % 2 == 0) {
          sim.schedule_at(at,
                          [p = LifeProbe{&destroyed, nullptr}, &probes_ran] { ++probes_ran; });
          ++probes;
        } else if (i % 3 == 0) {
          sim.schedule_at(at, [pad = std::array<std::uint64_t, 8>{}, &ran] {
            ran += 1 + static_cast<int>(pad[0]);
          });
        } else {
          sim.schedule_at(at, [&ran] { ++ran; });
        }
      }
    };

    fill(0);
    sim.run_until(sim.now() + Duration::nanos(1'500));
    EXPECT_GT(probes_ran, 0);
    EXPECT_EQ(destroyed, probes_ran);
    sim.clear();
    EXPECT_EQ(destroyed, probes);

    const int dropped = probes - probes_ran;
    fill(1);  // probes land in slots that held trivial actions, and back
    sim.run();
    EXPECT_EQ(destroyed, probes);
    EXPECT_EQ(probes_ran + dropped, probes);

    fill(2);
    sim.run_until(sim.now() + Duration::nanos(1'500));
    EXPECT_EQ(destroyed, probes_ran + dropped);
    EXPECT_LT(destroyed, probes);
  }
  EXPECT_EQ(destroyed, probes);
  EXPECT_EQ(probes, 3 * 750);
  EXPECT_GT(ran, 0);
}

TEST(SlotArenaLifetime, ActionGrowingArenaWhileRunningStaysValid) {
  // 2500 schedules from one action allocate more than two fresh 1024-slot
  // chunks while it runs. Its captures must stay readable afterwards
  // (ASan flags the action if growth moved or freed it).
  constexpr int kChildren = 2500;
  Simulator sim;
  std::vector<int> order;
  int destroyed = 0;
  sim.schedule_at(TimePoint::from_nanos(10), [p = LifeProbe{&destroyed, nullptr},
                                              tag = std::uint64_t{0xFEEDFACE}, &sim, &order] {
    for (int i = 0; i < kChildren; ++i) {
      sim.schedule_after(Duration::nanos(kChildren - i),
                         [i, &order] { order.push_back(i); });
    }
    EXPECT_EQ(tag, 0xFEEDFACEu);
    order.push_back(-1);
  });
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kChildren + 1));
  EXPECT_EQ(order.front(), -1);
  // Delays descend with i, so the children run in reverse schedule order.
  for (int i = 0; i < kChildren; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i + 1)], kChildren - 1 - i);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(SlotArenaLifetime, ThrowingActionFreesItsSlotAndLaterEventsKeepOrder) {
  Simulator sim;
  std::vector<int> order;
  int destroyed = 0;
  const TimePoint t = TimePoint::from_nanos(1'000);
  sim.schedule_at(t, [&order] { order.push_back(0); });
  sim.schedule_at(t, [p = LifeProbe{&destroyed, nullptr}, &sim, &order] {
    order.push_back(1);
    // Pending in the active heap when the throw unwinds the run.
    sim.schedule_at(sim.now(), [&order] { order.push_back(4); });
    throw std::runtime_error{"action failed"};
  });
  sim.schedule_at(t, [&order] { order.push_back(2); });
  sim.schedule_at(TimePoint::from_nanos(1'001), [&order] { order.push_back(5); });
  sim.schedule_at(TimePoint::from_nanos(9'000'000'000), [&order] { order.push_back(6); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_EQ(sim.executed_events(), 2u);
  // Equal-time events scheduled after the throw still follow the ones
  // already queued at that time.
  sim.schedule_at(t, [&order] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 3, 5, 6}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace fbdcsim::sim
