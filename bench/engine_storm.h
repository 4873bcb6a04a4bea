// The hot-path event-engine storm of bench_runtime_scaling: one
// deterministic single-threaded event storm, run on the test-only
// reference heap scheduler and on sim::Simulator. Each engine's storm is
// instantiated in its own translation unit (engine_storm_reference.cpp,
// engine_storm_simulator.cpp), so neither is optimized in the context of
// the other and the events/sec ratio compares like with like.
#pragma once

#include <chrono>
#include <cstdint>

#include "fbdcsim/core/time.h"

namespace fbdcsim::bench {

/// Monotonic wall-clock time in seconds.
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct StormOutcome {
  double seconds{0.0};
  std::uint64_t events{0};
  std::uint64_t pending{0};
  std::uint64_t checksum{0};
};

/// A deterministic single-threaded event storm shaped like the rack-sim
/// hot path: many sources rescheduling themselves with small captured
/// state (48 bytes — within InlineAction's inline buffer), delays mostly
/// inside the bucketed engine's wheel window with occasional far jumps
/// through the overflow heap, plus a handful of self-re-arming periodic
/// events. `Scheduler` is sim::Simulator or tests::ReferenceScheduler.
template <typename Scheduler>
class EngineStorm {
 public:
  StormOutcome run() {
    for (std::uint32_t id = 0; id < kSources; ++id) {
      schedule_next(0x9E3779B97F4A7C15ULL * (id + 1), id);
    }
    for (std::int64_t t = 0; t < kTimers; ++t) {
      const std::int64_t period_ns = (50 + 7 * t) * 1000;
      arm_timer(period_ns, period_ns);
    }
    const double t0 = now_seconds();
    sim_.run_until(core::TimePoint::from_nanos(kHorizonNs));
    StormOutcome out;
    out.seconds = now_seconds() - t0;
    out.events = sim_.executed_events();
    out.pending = sim_.pending_events();
    out.checksum = checksum_;
    return out;
  }

 private:
  static constexpr std::uint32_t kSources = 2048;
  static constexpr std::int64_t kTimers = 8;
  static constexpr std::int64_t kHorizonNs = 3'000'000'000;  // 3 s of sim time

  static std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
  }

  static std::uint64_t next_state(std::uint64_t s) {  // xorshift64
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }

  void schedule_next(std::uint64_t state, std::uint32_t id) {
    // Timer-wheel-shaped steps of 0.5 µs – 4 ms: the 2048 sources spread
    // across the whole 4.2 ms wheel window, so buckets stay sparse while
    // the reference engine's heap stays ~2048 deep. Roughly one step in
    // 4096 jumps 8 ms ahead, through the overflow heap.
    const bool far = (state >> 24) % 4096 == 0;
    const auto delta = core::Duration::nanos(
        far ? 8'000'000 : 500 + static_cast<std::int64_t>(state % 4'000'000));
    const std::uint64_t p0 = state ^ 0xA5A5A5A5A5A5A5A5ULL;
    const std::uint64_t p1 = state + id;
    const std::uint64_t p2 = state >> 7;
    sim_.schedule_after(delta, [this, state, id, p0, p1, p2] {
      checksum_ = mix(checksum_,
                      static_cast<std::uint64_t>(sim_.now().count_nanos()) ^ p0 ^ p1 ^
                          p2 ^ id);
      schedule_next(next_state(state), id);
    });
  }

  /// A periodic tick at at_ns, at_ns + period_ns, ...: the event re-arms
  /// itself after folding its firing time into the checksum.
  void arm_timer(std::int64_t period_ns, std::int64_t at_ns) {
    sim_.schedule_at(core::TimePoint::from_nanos(at_ns), [this, period_ns, at_ns] {
      checksum_ = mix(checksum_, static_cast<std::uint64_t>(at_ns));
      arm_timer(period_ns, at_ns + period_ns);
    });
  }

  Scheduler sim_;
  std::uint64_t checksum_{0};
};

/// Best-of-two timed runs (the storm is deterministic, so both runs
/// produce the same outcome; the min smooths scheduler noise).
template <typename Scheduler>
StormOutcome measure_storm() {
  StormOutcome best = EngineStorm<Scheduler>{}.run();
  const StormOutcome again = EngineStorm<Scheduler>{}.run();
  if (again.seconds < best.seconds) best = again;
  return best;
}

/// measure_storm on tests::ReferenceScheduler and on sim::Simulator.
StormOutcome measure_reference_storm();
StormOutcome measure_simulator_storm();

}  // namespace fbdcsim::bench
