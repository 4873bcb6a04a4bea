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
  explicit RunMetricsScope(Simulator& sim)
      : sim_{&sim}, start_events_{sim.executed_}, start_{std::chrono::steady_clock::now()} {}

  ~RunMetricsScope() {
    const auto heap = static_cast<std::int64_t>(sim_->unpublished_heap_);
    const auto scheduled = static_cast<std::int64_t>(sim_->next_seq_ - sim_->published_seq_);
    sim_->unpublished_heap_ = 0;
    sim_->published_seq_ = sim_->next_seq_;
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
  std::chrono::steady_clock::time_point start_;
};
#endif

void Simulator::throw_past() {
  throw std::invalid_argument{"Simulator: cannot schedule in the past"};
}

void Simulator::throw_empty() {
  throw std::invalid_argument{"Simulator: cannot schedule an empty action"};
}

void Simulator::throw_too_many_schedules() {
  throw std::length_error{"Simulator: more than 2^40 schedules"};
}

std::uint32_t Simulator::grow() {
  if (chunks_.size() * kChunkSlots >= kMaxSlots) {
    throw std::length_error{"Simulator: more than 2^24 pending events"};
  }
  // Size free_ first: if either allocation throws, the arena is unchanged
  // and free_ still has a cell per slot.
  free_.resize((chunks_.size() + 1) * kChunkSlots);
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  const auto base = static_cast<std::uint32_t>((chunks_.size() - 1) * kChunkSlots);
  // Lowest index on top, so a fresh chunk fills front to back.
  for (std::uint32_t i = kChunkSlots; i-- > 0;) free_[free_top_++] = base + i;
  return free_[free_top_ - 1];
}

void Simulator::enqueue(TimePoint at, std::uint32_t slot) {
  const Key key{at, (next_seq_ << kSlotBits) | slot};
  const std::int64_t idx = bucket_of(at);
  try {
    if (draining_ && idx <= cursor_) {
      // Scheduled (from an executing action) into the bucket being
      // drained: the heap keeps the in-progress sorted scan valid without
      // re-sorting the bucket vector per schedule.
      active_.push_back(key);
      std::push_heap(active_.begin(), active_.end(), Later{});
    } else if (idx >= cursor_ + kWheelSize) {
      overflow_.push_back(key);
      std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    } else {
      // idx < cursor_ happens when the cursor passed the event's natural
      // bucket but `at` is still >= now() (e.g. after a horizon stop
      // mid-bucket); the event is folded into the current bucket and the
      // per-bucket (time, seq) sort puts it first.
      Bucket& b = wheel_[(idx <= cursor_ ? cursor_ : idx) & kWheelMask];
      if (b.pos == b.items.size() && b.pos != 0) {
        // Everything in the bucket already executed; drop the stale prefix.
        b.items.clear();
        b.pos = 0;
        b.dirty = false;
      }
      if (!b.dirty && !b.items.empty() && at < b.items.back().at) b.dirty = true;
      b.items.push_back(key);
    }
  } catch (...) {
    release(slot);  // the key never made it into a queue
    throw;
  }
  ++next_seq_;
  ++size_;
}

void Simulator::migrate_overflow() {
  // Overflow pops in (time, seq) order and the bucket index is monotone in
  // time, so the now-in-window events are exactly the heap's top prefix.
  const std::int64_t limit = cursor_ + kWheelSize;
  while (!overflow_.empty() && bucket_of(overflow_.front().at) < limit) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    const Key key = overflow_.back();
    overflow_.pop_back();
    Bucket& b = wheel_[bucket_of(key.at) & kWheelMask];
    if (!b.dirty && !b.items.empty() && key.at < b.items.back().at) b.dirty = true;
    b.items.push_back(key);
  }
}

void Simulator::run_loop(TimePoint horizon, bool bounded) {
#if FBDCSIM_TELEMETRY_ENABLED
  RunMetricsScope metrics{*this};
#endif
  /// Ends one action's run, also when it throws: destroys the action in
  /// place and frees its slot.
  struct Executing {
    Simulator& sim;
    std::uint32_t slot;
    ~Executing() {
      sim.draining_ = false;
      sim.release(slot);
    }
  };

  // Every iteration re-derives its state from the member fields, so an
  // action calling clear() (or scheduling more work) is always observed.
  for (;;) {
    if (size_ == 0) break;

    Bucket& b = wheel_[cursor_ & kWheelMask];
    if (b.dirty) {
      b.items.erase(b.items.begin(),
                    b.items.begin() + static_cast<std::ptrdiff_t>(b.pos));
      b.pos = 0;
      std::sort(b.items.begin(), b.items.end(), Earlier{});
      b.dirty = false;
    }

    const bool bucket_has = b.pos < b.items.size();
    if (!bucket_has && active_.empty()) {
      b.items.clear();
      b.pos = 0;
      if (size_ == overflow_.size()) {
        // Wheel empty: jump straight to the earliest overflow event.
        if (bounded && overflow_.front().at > horizon) break;
        cursor_ = bucket_of(overflow_.front().at);
      } else {
        ++cursor_;
      }
      migrate_overflow();
      continue;
    }

    // Next event = min of the bucket front and the active heap.
    bool from_active = !bucket_has;
    if (bucket_has && !active_.empty()) {
      from_active = Earlier{}(active_.front(), b.items[b.pos]);
    }
    const Key key = from_active ? active_.front() : b.items[b.pos];
    if (bounded && key.at > horizon) break;

    if (from_active) {
      std::pop_heap(active_.begin(), active_.end(), Later{});
      active_.pop_back();
    } else {
      ++b.pos;
    }
    --size_;
    now_ = key.at;
    ++executed_;
    const Executing executing{*this, key.slot()};
    draining_ = true;
    action_at(key.slot())();
  }

  // A horizon stop can leave active-heap events pending; fold them back
  // into their bucket so schedules made between runs see one sorted tier.
  // (A throwing action skips this; the next run merges the leftover
  // active_ keys with the bucket like any other.)
  if (!active_.empty()) {
    Bucket& b = wheel_[cursor_ & kWheelMask];
    b.items.insert(b.items.end(), active_.begin(), active_.end());
    active_.clear();
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
  // Only queued keys own a live action; the executing one (if clear() runs
  // from inside an action) is in no queue and is freed when it returns.
  const auto drop = [this](const Key* first, const Key* last) {
    for (; first != last; ++first) release(first->slot());
  };
  for (Bucket& b : wheel_) {
    drop(b.items.data() + b.pos, b.items.data() + b.items.size());
    b.items.clear();
    b.pos = 0;
    b.dirty = false;
  }
  drop(active_.data(), active_.data() + active_.size());
  active_.clear();
  drop(overflow_.data(), overflow_.data() + overflow_.size());
  overflow_.clear();
  size_ = 0;
}

PeriodicTimer::PeriodicTimer(Simulator& sim, Duration period, Tick tick)
    : state_{std::make_shared<State>(State{&sim, period, std::move(tick), true})} {
  if (period <= Duration{}) throw std::invalid_argument{"PeriodicTimer: period must be positive"};
  if (!state_->tick) throw std::invalid_argument{"PeriodicTimer: tick must not be empty"};
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
