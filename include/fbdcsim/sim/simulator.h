// Discrete-event simulation engine.
//
// A single-threaded event loop executing actions in (time, seq) order:
// equal-time events fire in scheduling order (FIFO), which makes every run
// deterministic — a prerequisite for the reproducibility promises in
// DESIGN.md §6.
//
// The scheduler is two-level (DESIGN.md §9). Events within the near-future
// window land in a 1024-bucket time wheel (4.096 us per bucket, ~4.2 ms
// window) and are sorted per bucket only when the wheel reaches them;
// events beyond the window wait in an overflow heap and migrate into the
// wheel as it rotates. The queues hold only 16-byte keys: the time and
// one word packing the schedule sequence number above the arena slot, so
// comparing (time, word) is comparing (time, seq). Each action is an
// InlineAction (no heap allocation for captures up to 56 bytes — every
// current hot-path capture) built in place in a slot of a chunked arena
// whose chunks never move, and it runs and is destroyed in that slot:
// sorting, heap sifts and migration never touch an action.
//
// The packing sets two limits, both checked (std::length_error):
// kMaxSlots (2^24) events pending at once — 1 GiB of slots — and
// kMaxSchedules (2^40) schedules over the simulator's lifetime.
// tests/sim/engine_property_test.cpp checks the execution order against a
// plain binary-heap oracle (tests/support/reference_scheduler.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "fbdcsim/core/time.h"
#include "fbdcsim/sim/inline_action.h"

namespace fbdcsim::sim {

using core::Duration;
using core::TimePoint;

class Simulator {
 public:
  using Action = InlineAction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  /// Destroys every still-pending action.
  ~Simulator() { clear(); }

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules a callable at absolute time `at` (must not be in the past).
  /// The callable is constructed directly in its arena slot.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Action>>>
  void schedule_at(TimePoint at, F&& f) {
    emplace(at, std::forward<F>(f));
    if constexpr (!Action::fits_inline<std::decay_t<F>>) ++unpublished_heap_;
  }

  /// Schedules an already type-erased action (hot paths that pre-build
  /// InlineActions, tests); the action is moved into its slot once.
  /// Throws std::invalid_argument if `at` is in the past or the action is
  /// empty, before anything is queued.
  void schedule_at(TimePoint at, Action&& action) {
    if (!action) throw_empty();
    const bool inlined = action.is_inline();
    emplace(at, std::move(action));
    if (!inlined) ++unpublished_heap_;
  }

  /// Schedules after a delay from now.
  template <typename F>
  void schedule_after(Duration delay, F&& f) {
    schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Runs events until the queue is empty or the horizon is passed. Events
  /// strictly after `horizon` remain queued; time stops at the horizon.
  void run_until(TimePoint horizon);

  /// Runs until the queue is empty.
  void run();

  /// Discards (and destroys) all pending events; the clock is unchanged.
  /// Safe to call from inside an executing event: the remaining queue is
  /// dropped and anything the current action schedules afterwards still
  /// runs.
  void clear();

  [[nodiscard]] std::size_t pending_events() const { return size_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  static constexpr unsigned kSlotBits = 24;
  /// Most events pending at once (slot indices fit below the sequence).
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  /// Most schedules over the simulator's lifetime (seq fills the rest).
  static constexpr std::uint64_t kMaxSchedules = std::uint64_t{1} << (64 - kSlotBits);

  /// What the queues hold: the execution order and where the action lives.
  /// `order` is seq << kSlotBits | slot. Seq is unique, so ordering by
  /// (at, order) is ordering by (at, seq); the slot never decides.
  struct Key {
    TimePoint at;
    std::uint64_t order;

    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(order & (kMaxSlots - 1));
    }
  };
  static_assert(sizeof(Key) == 16 && std::is_trivially_copyable_v<Key>);

  /// (time, seq) ascending — the execution order. Function objects rather
  /// than function pointers, so every sort and heap sift inlines them.
  struct Earlier {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.at != b.at ? a.at < b.at : a.order < b.order;
    }
  };
  /// The heap comparator: std::*_heap keep the greatest element on top, so
  /// "greatest" must mean latest-first-out.
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept { return Earlier{}(b, a); }
  };

  /// One arena cell: raw storage for an action, alive only while queued
  /// or executing.
  union Slot {
    Slot() noexcept {}
    ~Slot() {}
    Action action;
  };

  static constexpr unsigned kChunkShiftBits = 10;  // 1024 slots per chunk
  static constexpr std::uint32_t kChunkSlots = 1U << kChunkShiftBits;

  static constexpr unsigned kBucketShiftBits = 12;  // 4096 ns per bucket
  static constexpr std::int64_t kWheelSize = 1024;  // ~4.2 ms window
  static constexpr std::int64_t kWheelMask = kWheelSize - 1;

  [[nodiscard]] static std::int64_t bucket_of(TimePoint at) {
    return at.count_nanos() >> kBucketShiftBits;  // sim time is never negative
  }

  struct Bucket {
    std::vector<Key> items;
    std::size_t pos{0};  // executed prefix of items
    bool dirty{false};   // items[pos..] not known sorted
  };

  class RunMetricsScope;  // publishes a run's telemetry when it ends

  template <typename F>
  void emplace(TimePoint at, F&& f) {
    if (at < now_) throw_past();
    if (next_seq_ == kMaxSchedules) throw_too_many_schedules();
    // Build in the free-list head before taking it, so a throwing
    // constructor leaves the arena unchanged.
    const std::uint32_t slot = free_top_ == 0 ? grow() : free_[free_top_ - 1];
    ::new (static_cast<void*>(&action_at(slot))) Action(std::forward<F>(f));
    --free_top_;
    enqueue(at, slot);
  }

  [[nodiscard]] Action& action_at(std::uint32_t slot) {
    return chunks_[slot >> kChunkShiftBits][slot & (kChunkSlots - 1)].action;
  }

  [[noreturn]] static void throw_past();
  [[noreturn]] static void throw_empty();
  [[noreturn]] static void throw_too_many_schedules();
  /// Allocates one more chunk; returns the new free-list head. Throws
  /// std::length_error when the arena already holds kMaxSlots slots.
  std::uint32_t grow();
  /// Destroys the action in `slot` and returns the slot to the free list.
  void release(std::uint32_t slot) noexcept {
    action_at(slot).~Action();
    free_[free_top_++] = slot;  // a plain store: free_ has a cell per slot
  }
  /// Files the key of a constructed action into its tier.
  void enqueue(TimePoint at, std::uint32_t slot);
  void run_loop(TimePoint horizon, bool bounded);
  /// Moves overflow events that now fall inside the wheel window into it.
  void migrate_overflow();

  TimePoint now_;
  std::uint64_t next_seq_{0};  // never reset: every schedule ever made
  std::uint64_t executed_{0};
  /// next_seq_ at the last telemetry publish, and the schedules since then
  /// that fell back to a heap cell (RunMetricsScope publishes both).
  std::uint64_t published_seq_{0};
  std::uint64_t unpublished_heap_{0};
  std::size_t size_{0};

  /// The slot arena. Chunks never move once allocated, so an executing
  /// action stays put while it schedules enough to grow the arena. The
  /// free slots are a LIFO stack, free_[0, free_top_); free_ has a cell
  /// for every slot, so returning a slot is a store that never allocates.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::size_t free_top_{0};

  std::vector<Bucket> wheel_{static_cast<std::size_t>(kWheelSize)};
  std::int64_t cursor_{0};  // absolute index of the bucket being drained
  bool draining_{false};    // inside run_loop, draining bucket cursor_
  /// Min-heaps on (time, seq). active_: events scheduled into bucket
  /// cursor_ while it is being drained (kept out of the bucket vector so
  /// the in-progress sorted scan stays valid). overflow_: events beyond
  /// the wheel window.
  std::vector<Key> active_;
  std::vector<Key> overflow_;
};

/// A repeating timer: invokes `tick` every `period` until cancelled or the
/// simulator stops. The callback receives the firing time.
///
/// Reentrancy contract: a tick may cancel() its own timer — or destroy the
/// PeriodicTimer outright — and the timer will not reschedule. The shared
/// State below is what makes destruction-during-tick safe: the in-flight
/// event owns a reference, so the executing callback never dangles even
/// after ~PeriodicTimer runs (the pre-rewrite implementation kept the
/// callback inside the timer object and destroyed it mid-invocation).
class PeriodicTimer {
 public:
  using Tick = std::function<void(TimePoint)>;

  PeriodicTimer(Simulator& sim, Duration period, Tick tick);
  ~PeriodicTimer() { cancel(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Idempotent; safe to call from inside the timer's own tick.
  void cancel() noexcept {
    if (state_ != nullptr) state_->alive = false;
  }

 private:
  struct State {
    Simulator* sim;
    Duration period;
    Tick tick;
    bool alive{true};
  };

  static void arm(const std::shared_ptr<State>& state, TimePoint at);

  std::shared_ptr<State> state_;
};

}  // namespace fbdcsim::sim
