// Hierarchical wall-clock timing spans.
//
// A TraceSpan measures one scoped region (a capture, a shard generation, a
// pool task) and records a TraceEvent into the Tracer when it closes. Spans
// nest: each thread keeps a depth counter, so events reconstruct the call
// tree, and the Chrome trace exporter (export.h) renders them as stacked
// slices per thread in chrome://tracing or Perfetto.
//
// Span timestamps are wall-clock by definition, so everything here is
// Kind::kWall territory — trace output is never part of a bit-identity
// comparison. Recording is a short critical section on the global Tracer;
// spans are coarse-grained (tasks, shards, whole captures — never
// per-packet), so contention is negligible next to the work they measure.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fbdcsim::telemetry {

/// One completed span, in Chrome trace-event terms a "complete" (ph: "X")
/// slice on thread `tid`.
struct TraceEvent {
  std::string name;    // span name; "name:detail" when a detail was given
  std::uint32_t tid{0};
  std::uint32_t depth{0};   // nesting depth at open time (0 = top level)
  std::int64_t start_us{0}; // microseconds since the tracer's epoch
  std::int64_t dur_us{0};
};

/// Collects TraceEvents. The epoch is fixed at construction so all events
/// share one timebase.
class Tracer {
 public:
  Tracer();

  [[nodiscard]] static Tracer& global();

  void record(TraceEvent event);

  /// All events so far, sorted by (start_us, tid, depth).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Microseconds elapsed since this tracer's epoch (monotonic clock).
  [[nodiscard]] std::int64_t now_us() const;

  /// Dense id of the calling thread (assigned on first use).
  [[nodiscard]] static std::uint32_t this_thread_id() noexcept;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::int64_t epoch_ns_;  // steady_clock time at construction
};

/// RAII span: opens at construction, records at destruction.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Tracer& tracer = Tracer::global());
  TraceSpan(const char* name, std::string detail, Tracer& tracer = Tracer::global());
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Tracer* tracer_;
  std::string name_;
  std::uint32_t depth_{0};
  std::int64_t start_us_{0};
};

}  // namespace fbdcsim::telemetry
