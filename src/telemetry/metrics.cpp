#include "fbdcsim/telemetry/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace fbdcsim::telemetry {

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kSim:
      return "sim";
    case Kind::kWall:
      return "wall";
  }
  return "?";
}

namespace detail {

std::size_t claim_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  return std::min(next.fetch_add(1, std::memory_order_relaxed), kSharedShard);
}

}  // namespace detail

void Histogram::observe(std::int64_t value) noexcept {
  if (value < 0) value = 0;
  const std::size_t shard = detail::this_thread_shard();
  Shard& s = shards_[shard];
  std::atomic<std::int64_t>& bin = s.bins[bin_for(value)];
  if (shard != detail::kSharedShard) {
    // Owned shard: this thread is its only writer, as in Counter::add.
    bin.store(bin.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    s.count.store(s.count.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    s.sum.store(s.sum.load(std::memory_order_relaxed) + value, std::memory_order_relaxed);
    if (value < s.min.load(std::memory_order_relaxed)) {
      s.min.store(value, std::memory_order_relaxed);
    }
    if (value > s.max.load(std::memory_order_relaxed)) {
      s.max.store(value, std::memory_order_relaxed);
    }
    return;
  }
  bin.fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  std::int64_t cur = s.min.load(std::memory_order_relaxed);
  while (value < cur && !s.min.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (value > cur && !s.max.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

double Histogram::bin_midpoint(std::size_t bin) noexcept {
  constexpr std::size_t kExact = 1u << (kSubBits + 1);  // bins 0..15 hold v == bin
  if (bin < kExact) return static_cast<double>(bin);
  const std::size_t group = (bin >> kSubBits) - 1;  // octaves past the exact range
  const unsigned msb = static_cast<unsigned>(group) + kSubBits;
  const std::uint64_t width = 1ull << (msb - kSubBits);
  const std::uint64_t lo = (1ull << msb) + (bin & ((1u << kSubBits) - 1)) * width;
  return static_cast<double>(lo) + static_cast<double>(width) / 2.0;
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    for (auto& b : s.bins) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(std::numeric_limits<std::int64_t>::max(), std::memory_order_relaxed);
    s.max.store(std::numeric_limits<std::int64_t>::min(), std::memory_order_relaxed);
  }
}

double Snapshot::HistogramValue::quantile(double q) const {
  if (count <= 0 || bins.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The extremes are tracked exactly; everything between has bin-midpoint
  // resolution.
  if (q <= 0.0) return static_cast<double>(min);
  if (q >= 1.0) return static_cast<double>(max);
  // Nearest-rank over the merged bins, then clamp to the exact extremes.
  const double target = q * static_cast<double>(count);
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    seen += bins[b];
    if (static_cast<double>(seen) >= target) {
      const double mid = Histogram::bin_midpoint(b);
      return std::clamp(mid, static_cast<double>(min), static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

namespace {

template <typename V>
const V* find_by_name(const std::vector<V>& entries, std::string_view name) {
  for (const V& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace

const Snapshot::CounterValue* Snapshot::counter(std::string_view name) const {
  return find_by_name(counters, name);
}
const Snapshot::GaugeValue* Snapshot::gauge(std::string_view name) const {
  return find_by_name(gauges, name);
}
const Snapshot::HistogramValue* Snapshot::histogram(std::string_view name) const {
  return find_by_name(histograms, name);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

template <typename T>
T& MetricsRegistry::find_or_create(Map<T>& map, const char* type, std::string_view name,
                                   Kind kind) {
  std::lock_guard<std::mutex> lk{mu_};
  const auto it = map.find(name);
  if (it != map.end()) {
    if (it->second.kind != kind) {
      throw std::invalid_argument{"MetricsRegistry: " + std::string{type} + " '" +
                                  std::string{name} + "' re-declared with a different kind"};
    }
    return *it->second.metric;
  }
  // Not in its own map, so any hit is another metric type.
  if (counters_.count(name) + gauges_.count(name) + histograms_.count(name) != 0) {
    throw std::invalid_argument{"MetricsRegistry: '" + std::string{name} +
                                "' already exists as another metric type"};
  }
  auto& entry = map[std::string{name}];
  entry.kind = kind;
  entry.metric = std::make_unique<T>();
  return *entry.metric;
}

Counter& MetricsRegistry::counter(std::string_view name, Kind kind) {
  return find_or_create(counters_, "counter", name, kind);
}

Gauge& MetricsRegistry::gauge(std::string_view name, Kind kind) {
  return find_or_create(gauges_, "gauge", name, kind);
}

Histogram& MetricsRegistry::histogram(std::string_view name, Kind kind) {
  return find_or_create(histograms_, "histogram", name, kind);
}

Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk{mu_};
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, entry] : counters_) {
    snap.counters.push_back({name, entry.kind, entry.metric->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, entry] : gauges_) {
    snap.gauges.push_back({name, entry.kind, entry.metric->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, entry] : histograms_) {
    Snapshot::HistogramValue h;
    h.name = name;
    h.kind = entry.kind;
    h.bins.assign(Histogram::kBins, 0);
    std::int64_t mn = std::numeric_limits<std::int64_t>::max();
    std::int64_t mx = std::numeric_limits<std::int64_t>::min();
    for (const Histogram::Shard& s : entry.metric->shards_) {
      h.count += s.count.load(std::memory_order_relaxed);
      h.sum += static_cast<double>(s.sum.load(std::memory_order_relaxed));
      mn = std::min(mn, s.min.load(std::memory_order_relaxed));
      mx = std::max(mx, s.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < Histogram::kBins; ++b) {
        h.bins[b] += s.bins[b].load(std::memory_order_relaxed);
      }
    }
    if (h.count > 0) {
      h.min = mn;
      h.max = mx;
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk{mu_};
  for (auto& [name, entry] : counters_) entry.metric->reset();
  for (auto& [name, entry] : gauges_) entry.metric->reset();
  for (auto& [name, entry] : histograms_) entry.metric->reset();
}

}  // namespace fbdcsim::telemetry
