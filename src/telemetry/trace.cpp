#include "fbdcsim/telemetry/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

namespace fbdcsim::telemetry {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread span nesting depth.
thread_local std::uint32_t t_depth = 0;

}  // namespace

Tracer::Tracer() : epoch_ns_{steady_now_ns()} {}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();  // never destroyed
  return *tracer;
}

void Tracer::record(TraceEvent event) {
  std::lock_guard<std::mutex> lk{mu_};
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lk{mu_};
    out = events_;
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.depth < b.depth;
  });
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk{mu_};
  return events_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk{mu_};
  events_.clear();
}

std::int64_t Tracer::now_us() const { return (steady_now_ns() - epoch_ns_) / 1000; }

std::uint32_t Tracer::this_thread_id() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceSpan::TraceSpan(const char* name, Tracer& tracer)
    : tracer_{&tracer}, name_{name}, depth_{t_depth++}, start_us_{tracer.now_us()} {}

TraceSpan::TraceSpan(const char* name, std::string detail, Tracer& tracer)
    : TraceSpan{name, tracer} {
  if (!detail.empty()) {
    name_ += ':';
    name_ += detail;
  }
}

TraceSpan::~TraceSpan() {
  --t_depth;
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.tid = Tracer::this_thread_id();
  ev.depth = depth_;
  ev.start_us = start_us_;
  ev.dur_us = tracer_->now_us() - start_us_;
  tracer_->record(std::move(ev));
}

}  // namespace fbdcsim::telemetry
