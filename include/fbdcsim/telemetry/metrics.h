// Metric primitives and the registry that owns them.
//
// Hot-path mutations rarely contend: counters and histograms spread their
// state over cache-line-aligned shards indexed by a per-thread slot, and all
// updates are relaxed atomics. The first kShards - 1 threads to touch a
// metric each own a shard outright, so a counter add there is a relaxed
// load and store with no locked instruction; later threads share the last
// shard through fetch_add. Aggregation happens only on snapshot(), where
// shards are summed — the same merge-on-read discipline as core::Cdf::merge
// and FbflowPipeline::merge in the parallel runtime.
//
// Snapshots are plain data, sorted by name, so two of them compare and
// export deterministically.
//
// These classes have no on/off state of their own: every call records. The
// FBDCSIM_TELEMETRY CMake option (telemetry.h) is the only off switch; it
// removes the instrumentation sites, not these types.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fbdcsim::telemetry {

/// Determinism class of a metric (DESIGN.md §7).
enum class Kind : std::uint8_t {
  kSim,   // derived from simulation state; bit-identical across thread counts
  kWall,  // wall-clock / scheduling derived; excluded from identity gates
};

[[nodiscard]] const char* to_string(Kind kind);

namespace detail {
/// Per-thread slot in [0, kShards) for shard selection. Slots are handed
/// out once, in the order threads first touch a metric, and never reused:
/// each of the first kShards - 1 threads owns its slot for the process's
/// lifetime, and every later thread shares kSharedShard.
inline constexpr std::size_t kShards = 16;
inline constexpr std::size_t kSharedShard = kShards - 1;

/// Claims the calling thread's slot; called once per thread.
[[nodiscard]] std::size_t claim_thread_shard() noexcept;

inline thread_local std::size_t t_shard = kShards;  // kShards: not yet claimed

[[nodiscard]] inline std::size_t this_thread_shard() noexcept {
  if (t_shard == kShards) [[unlikely]] t_shard = claim_thread_shard();
  return t_shard;
}

struct alignas(64) ShardCell {
  std::atomic<std::int64_t> v{0};
};
}  // namespace detail

/// Monotonic sum, sharded; value() folds the shards. Every value is exact.
/// On an owned shard add() is a relaxed load and store: no other thread
/// writes that cell, so the read-modify-write needs no lock. On the shared
/// shard it is a relaxed fetch_add.
///
/// reset() must not run concurrently with add(): an owned-shard add that
/// straddles the reset would store its pre-reset sum back. Reset between
/// phases, as the tests do.
class Counter {
 public:
  void add(std::int64_t n = 1) noexcept {
    const std::size_t shard = detail::this_thread_shard();
    std::atomic<std::int64_t>& v = cells_[shard].v;
    if (shard != detail::kSharedShard) {
      v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    } else {
      v.fetch_add(n, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Not concurrent with add() (see the class comment).
  void reset() noexcept {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::ShardCell, detail::kShards> cells_;
};

/// Last-written / high-water value. Unsharded: gauges are written rarely
/// (configuration, peaks), never per event.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }

  /// Raises the gauge to `v` if larger (atomic high-water mark).
  void update_max(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-scale histogram of non-negative integer samples (latencies in
/// microseconds, depths, sizes). Bins are exact below 16 and then 8
/// sub-buckets per power of two (<= 12.5% relative width), the standard
/// HDR-style layout. Quantiles are computed from the merged bins on
/// snapshot. Every count, sum, min and max is exact. As with Counter, on an
/// owned shard observe() is relaxed loads and stores with no locked
/// instruction; on the shared shard it is three relaxed fetch_adds and two
/// compare-exchange loops for min and max. reset() must not run
/// concurrently with observe(), for the reason Counter gives.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 3;  // 8 sub-buckets per octave
  static constexpr std::size_t kBins =
      (64 - kSubBits + 1) << kSubBits;  // indices for the full int64 range

  void observe(std::int64_t value) noexcept;

  [[nodiscard]] static std::size_t bin_for(std::int64_t value) noexcept {
    const std::uint64_t v = value < 0 ? 0 : static_cast<std::uint64_t>(value);
    if (v < (1u << (kSubBits + 1))) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    return (static_cast<std::size_t>(msb - kSubBits + 1) << kSubBits) +
           ((v >> (msb - kSubBits)) & ((1u << kSubBits) - 1));
  }

  /// Midpoint of the value range a bin covers (used for quantile readout).
  [[nodiscard]] static double bin_midpoint(std::size_t bin) noexcept;

  void reset() noexcept;

 private:
  friend class MetricsRegistry;

  struct Shard {
    std::array<std::atomic<std::int64_t>, kBins> bins{};
    std::atomic<std::int64_t> count{0};
    std::atomic<std::int64_t> sum{0};
    std::atomic<std::int64_t> min{std::numeric_limits<std::int64_t>::max()};
    std::atomic<std::int64_t> max{std::numeric_limits<std::int64_t>::min()};
  };
  std::array<Shard, detail::kShards> shards_;
};

/// A point-in-time copy of every metric, plain data, safe to export and
/// compare. Entries are sorted by name within each section.
struct Snapshot {
  struct CounterValue {
    std::string name;
    Kind kind{Kind::kSim};
    std::int64_t value{0};
  };
  struct GaugeValue {
    std::string name;
    Kind kind{Kind::kSim};
    std::int64_t value{0};
  };
  struct HistogramValue {
    std::string name;
    Kind kind{Kind::kSim};
    std::int64_t count{0};
    double sum{0};
    std::int64_t min{0};  // meaningful only when count > 0
    std::int64_t max{0};
    std::vector<std::int64_t> bins;  // size Histogram::kBins when non-empty

    [[nodiscard]] double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// Value at quantile q in [0, 1], read from the merged bins
    /// (bin-midpoint resolution, clamped to [min, max]).
    [[nodiscard]] double quantile(double q) const;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Lookup helpers (nullptr when absent).
  [[nodiscard]] const CounterValue* counter(std::string_view name) const;
  [[nodiscard]] const GaugeValue* gauge(std::string_view name) const;
  [[nodiscard]] const HistogramValue* histogram(std::string_view name) const;
};

/// Owns every metric. Handles returned by counter()/gauge()/histogram()
/// are stable for the registry's lifetime; re-requesting a name returns
/// the same handle (requesting it as a different metric type or kind
/// throws). The process-wide instance behind the FBDCSIM_T_* macros is
/// global(); tests may build private registries.
class MetricsRegistry {
 public:
  [[nodiscard]] static MetricsRegistry& global();

  [[nodiscard]] Counter& counter(std::string_view name, Kind kind);
  [[nodiscard]] Gauge& gauge(std::string_view name, Kind kind);
  [[nodiscard]] Histogram& histogram(std::string_view name, Kind kind);

  /// Copies every metric's current value (shards merged).
  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every metric's value. Handles stay valid. Must not run while
  /// another thread adds to a counter or observes a histogram (see
  /// Counter).
  void reset();

 private:
  template <typename T>
  struct Entry {
    Kind kind;
    std::unique_ptr<T> metric;
  };

  template <typename T>
  using Map = std::map<std::string, Entry<T>, std::less<>>;

  /// The one registration path: returns `name` from `map`, or creates it
  /// there. Throws when it exists with another kind or as another type.
  template <typename T>
  T& find_or_create(Map<T>& map, const char* type, std::string_view name, Kind kind);

  mutable std::mutex mu_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Histogram> histograms_;
};

}  // namespace fbdcsim::telemetry
