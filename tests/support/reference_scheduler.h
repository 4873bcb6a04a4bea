// Test oracle for sim::Simulator's ordering contract.
//
// The original event engine, kept verbatim and test-only: one
// std::priority_queue of std::function<void()> actions ordered by
// (time, seq), so equal-time events fire in scheduling order. It is the
// simplest correct implementation of the contract sim::Simulator
// implements with a calendar wheel; tests/sim/engine_property_test.cpp
// compares the two execution orders, and bench_runtime_scaling measures
// the wheel's events/sec against it. Only tests and benches include this
// header.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fbdcsim/core/time.h"

namespace fbdcsim::tests {

class ReferenceScheduler {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] core::TimePoint now() const { return now_; }

  /// Schedules `action` at absolute time `at` (must not be in the past).
  void schedule_at(core::TimePoint at, Action action) {
    if (at < now_) throw std::invalid_argument{"ReferenceScheduler: cannot schedule in the past"};
    queue_.push(Event{at, next_seq_++, std::move(action)});
  }

  /// Schedules `action` after a delay from now.
  void schedule_after(core::Duration delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Runs events with time <= `horizon`; later events stay queued and the
  /// clock stops at the horizon.
  void run_until(core::TimePoint horizon) {
    while (!queue_.empty() && queue_.top().at <= horizon) {
      // priority_queue::top() is const; moving the action out requires a
      // cast. The pop immediately after makes this safe.
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.at;
      ++executed_;
      ev.action();
    }
    if (now_ < horizon) now_ = horizon;
  }

  /// Runs until the queue is empty.
  void run() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.at;
      ++executed_;
      ev.action();
    }
  }

  /// Discards all pending events (the clock is unchanged).
  void clear() {
    while (!queue_.empty()) queue_.pop();
  }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  struct Event {
    core::TimePoint at;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  core::TimePoint now_;
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace fbdcsim::tests
