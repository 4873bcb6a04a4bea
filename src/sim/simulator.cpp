#include "fbdcsim/sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "fbdcsim/telemetry/telemetry.h"

namespace fbdcsim::sim {

#if FBDCSIM_TELEMETRY_ENABLED
/// Accounts one run()/run_until() call: events executed (deterministic)
/// and the wall time the loop took. sim.events / (sim.run_wall_us / 1e6)
/// is the event loop's aggregate throughput. Also publishes every schedule
/// since the previous publish (so t=0 schedules made before a run count).
class Simulator::RunMetricsScope {
 public:
  explicit RunMetricsScope(Simulator& sim) : sim_{&sim}, start_events_{sim.executed_} {
    if (!telemetry::Telemetry::enabled()) return;
    armed_ = true;
    start_ = std::chrono::steady_clock::now();
  }

  ~RunMetricsScope() {
    const auto heap = static_cast<std::int64_t>(sim_->unpublished_heap_);
    const auto scheduled = static_cast<std::int64_t>(sim_->next_seq_ - sim_->published_seq_);
    sim_->unpublished_heap_ = 0;
    sim_->published_seq_ = sim_->next_seq_;
    if (!armed_) return;
    FBDCSIM_T_COUNTER(events, "sim.events", Sim);
    FBDCSIM_T_COUNTER(runs, "sim.runs", Sim);
    FBDCSIM_T_COUNTER(wall, "sim.run_wall_us", Wall);
    FBDCSIM_T_COUNTER(inline_events, "sim.events_inline", Sim);
    FBDCSIM_T_COUNTER(heap_events, "sim.events_heap", Sim);
    FBDCSIM_T_ADD(events, static_cast<std::int64_t>(sim_->executed_ - start_events_));
    FBDCSIM_T_ADD(runs, 1);
    FBDCSIM_T_ADD(wall, std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
    FBDCSIM_T_ADD(inline_events, scheduled - heap);
    FBDCSIM_T_ADD(heap_events, heap);
  }

 private:
  Simulator* sim_;
  std::uint64_t start_events_;
  bool armed_{false};
  std::chrono::steady_clock::time_point start_;
};
#endif

namespace {

/// (time, seq) ascending — the execution order.
template <typename E>
bool earlier(const E& a, const E& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.seq < b.seq;
}

}  // namespace

void Simulator::schedule_at(TimePoint at, Action action) {
  if (at < now_) throw std::invalid_argument{"Simulator: cannot schedule in the past"};
  if (!action.is_inline()) ++unpublished_heap_;

  const std::int64_t idx = bucket_of(at);
  Event ev{at, next_seq_++, std::move(action)};
  ++size_;
  if (draining_ && idx <= cursor_) {
    // Scheduled (from an executing action) into the bucket being drained:
    // the heap keeps the in-progress sorted scan valid without re-sorting
    // the bucket vector per schedule.
    active_.push(std::move(ev));
    return;
  }
  if (idx >= cursor_ + kWheelSize) {
    overflow_.push(std::move(ev));
    return;
  }
  // idx < cursor_ happens when the cursor passed the event's natural bucket
  // but `at` is still >= now() (e.g. after a horizon stop mid-bucket); the
  // event is folded into the current bucket and the per-bucket (time, seq)
  // sort puts it first.
  Bucket& b = wheel_[(idx <= cursor_ ? cursor_ : idx) & kWheelMask];
  if (b.pos == b.items.size() && b.pos != 0) {
    // Everything in the bucket already executed; drop the stale prefix.
    b.items.clear();
    b.pos = 0;
    b.dirty = false;
  }
  if (!b.dirty && !b.items.empty() && ev.at < b.items.back().at) b.dirty = true;
  b.items.push_back(std::move(ev));
}

void Simulator::migrate_overflow() {
  // Overflow pops in (time, seq) order and the bucket index is monotone in
  // time, so the now-in-window events are exactly the heap's top prefix.
  const std::int64_t limit = cursor_ + kWheelSize;
  while (!overflow_.empty() && bucket_of(overflow_.top().at) < limit) {
    Event ev = std::move(const_cast<Event&>(overflow_.top()));
    overflow_.pop();
    Bucket& b = wheel_[bucket_of(ev.at) & kWheelMask];
    if (!b.dirty && !b.items.empty() && ev.at < b.items.back().at) b.dirty = true;
    b.items.push_back(std::move(ev));
  }
}

void Simulator::run_loop(TimePoint horizon, bool bounded) {
#if FBDCSIM_TELEMETRY_ENABLED
  RunMetricsScope metrics{*this};
#endif
  // Every iteration re-derives its state from the member fields, so an
  // action calling clear() (or scheduling more work) is always observed.
  for (;;) {
    if (size_ == 0) break;

    Bucket& b = wheel_[cursor_ & kWheelMask];
    if (b.dirty) {
      b.items.erase(b.items.begin(),
                    b.items.begin() + static_cast<std::ptrdiff_t>(b.pos));
      b.pos = 0;
      std::sort(b.items.begin(), b.items.end(), earlier<Event>);
      b.dirty = false;
    }

    const bool bucket_has = b.pos < b.items.size();
    if (!bucket_has && active_.empty()) {
      b.items.clear();
      b.pos = 0;
      if (size_ == overflow_.size()) {
        // Wheel empty: jump straight to the earliest overflow event.
        if (bounded && overflow_.top().at > horizon) break;
        cursor_ = bucket_of(overflow_.top().at);
      } else {
        ++cursor_;
      }
      migrate_overflow();
      continue;
    }

    // Next event = min of the bucket front and the active heap.
    bool from_active = !bucket_has;
    if (bucket_has && !active_.empty()) {
      from_active = earlier(active_.top(), b.items[b.pos]);
    }
    const Event& peek = from_active ? active_.top() : b.items[b.pos];
    if (bounded && peek.at > horizon) break;

    Event ev = from_active ? std::move(const_cast<Event&>(active_.top()))
                           : std::move(b.items[b.pos]);
    if (from_active) {
      active_.pop();
    } else {
      ++b.pos;
    }
    --size_;
    now_ = ev.at;
    ++executed_;
    draining_ = true;
    ev.action();
    draining_ = false;
  }
  draining_ = false;

  // A horizon stop can leave active-heap events pending; fold them back
  // into their bucket so the "active_ empty outside the drain" invariant
  // holds for the next schedule/run.
  if (!active_.empty()) {
    Bucket& b = wheel_[cursor_ & kWheelMask];
    while (!active_.empty()) {
      b.items.push_back(std::move(const_cast<Event&>(active_.top())));
      active_.pop();
    }
    b.dirty = true;
  }
}

void Simulator::run_until(TimePoint horizon) {
  run_loop(horizon, /*bounded=*/true);
  if (now_ < horizon) now_ = horizon;
}

void Simulator::run() {
  run_loop(TimePoint{}, /*bounded=*/false);
}

void Simulator::clear() {
  for (Bucket& b : wheel_) {
    b.items.clear();
    b.pos = 0;
    b.dirty = false;
  }
  while (!active_.empty()) active_.pop();
  while (!overflow_.empty()) overflow_.pop();
  size_ = 0;
}

PeriodicTimer::PeriodicTimer(Simulator& sim, Duration period, Tick tick)
    : state_{std::make_shared<State>(State{&sim, period, std::move(tick), true})} {
  if (period <= Duration{}) throw std::invalid_argument{"PeriodicTimer: period must be positive"};
  arm(state_, sim.now() + period);
}

void PeriodicTimer::arm(const std::shared_ptr<State>& state, TimePoint at) {
  // The event owns a reference to the state, so destroying the timer from
  // inside its own tick leaves the executing callback valid.
  state->sim->schedule_at(at, [st = state, at] {
    if (!st->alive) return;
    st->tick(at);
    if (st->alive) arm(st, at + st->period);
  });
}

}  // namespace fbdcsim::sim
