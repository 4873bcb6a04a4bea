// Sim-time time-series probes: how a signal *evolved*, not just where it
// ended up.
//
// The paper's collection pipeline (Fbflow -> Scribe -> Scuba) exists to turn
// counters into time-resolved series; this module does the same for the
// simulator. A TimeSeriesProbe samples a set of registered gauges (shared
// buffer occupancy, per-port queue depth, cwnd, active connections, ...) at a
// fixed sim-ns cadence into bounded TimeSeries rings with hierarchical
// downsampling: when a series fills, adjacent bins merge pairwise
// (min/max/last/sum/count-conserving) and the bin width doubles, so a
// day-long run costs the same memory as a one-second one while preserving
// exact extrema and exact means per bin.
//
// Determinism contract (DESIGN.md §11): everything here is keyed to sim time
// and derived purely from simulation state — snapshots and their JSON
// rendering are bit-identical across FBDCSIM_THREADS and merge orders. All state is plain data (no global registry, no atomics): one
// probe belongs to one simulation and is driven by its owner's
// sim::PeriodicTimer via sample_tick(), keeping telemetry free of a sim/
// dependency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fbdcsim/core/time.h"

namespace fbdcsim::telemetry {

/// One downsampled bin: `count` consecutive samples starting at the sample
/// taken at `start_ns`. Mean is sum/count; min/max/last are exact over the
/// folded samples (integers only, so JSON round-trips losslessly).
struct SeriesBin {
  std::int64_t start_ns{0};
  std::int64_t count{0};
  std::int64_t min{0};
  std::int64_t max{0};
  std::int64_t last{0};
  std::int64_t sum{0};
};

/// Value snapshot of one series: completed bins oldest-first, plus the
/// in-progress partial bin (if any) as the final element.
struct SeriesSnapshot {
  std::string name;
  std::int64_t period_ns{0};    // native sampling cadence
  std::int64_t bin_samples{0};  // samples per completed bin (a power of two)
  std::int64_t samples{0};      // samples ever taken (none are dropped)
  std::vector<SeriesBin> bins;
};

/// Bounded sim-time series with hierarchical downsampling. add_sample() must
/// be called with non-decreasing timestamps (the probe's fixed cadence
/// guarantees this).
class TimeSeries {
 public:
  TimeSeries(std::string name, std::int64_t period_ns, std::size_t capacity);

  void add_sample(std::int64_t t_ns, std::int64_t value);

  [[nodiscard]] SeriesSnapshot snapshot() const;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::int64_t samples() const { return samples_; }
  /// Samples folded into each completed bin (doubles on every compaction).
  [[nodiscard]] std::int64_t bin_samples() const { return bin_samples_; }

 private:
  void compact();

  std::string name_;
  std::int64_t period_ns_;
  std::size_t capacity_;
  std::int64_t bin_samples_{1};
  std::int64_t samples_{0};
  std::vector<SeriesBin> bins_;  // completed bins, oldest-first
  SeriesBin cur_{};              // in-progress bin (valid when cur_count_ > 0)
  std::int64_t cur_count_{0};
};

/// Samples every registered gauge on one fixed cadence. The owner drives it:
/// schedule a sim::PeriodicTimer with period() and call sample_tick(now)
/// from its tick (telemetry cannot depend on sim/ — the simulator links this
/// library). Gauges are sampled in registration order, which the owner keeps
/// deterministic; snapshot() orders series by name so exports never depend
/// on registration order.
class TimeSeriesProbe {
 public:
  using GaugeFn = std::function<std::int64_t()>;

  explicit TimeSeriesProbe(core::Duration period, std::size_t series_capacity = 512);

  /// Registers a gauge; the returned series lives as long as the probe.
  /// `fn` must stay valid for the probe's life. `stride` samples the gauge
  /// only every stride-th tick (starting with the first): gauges whose
  /// evaluation is O(live connections) rather than O(1) — the transport
  /// sums — would otherwise dominate the simulation at rack scale. The
  /// series' recorded period_ns is the effective cadence (period * stride),
  /// and sampling stays a pure function of tick count, so stride never
  /// breaks bit-identity.
  TimeSeries& add_gauge(std::string name, GaugeFn fn, std::int64_t stride = 1);

  /// Samples every gauge at sim time `t_ns`.
  void sample_tick(std::int64_t t_ns);

  /// Every series' snapshot, sorted by name.
  [[nodiscard]] std::vector<SeriesSnapshot> snapshot() const;

  [[nodiscard]] core::Duration period() const { return period_; }
  [[nodiscard]] std::int64_t ticks() const { return ticks_; }
  [[nodiscard]] std::size_t num_series() const { return entries_.size(); }

 private:
  struct Entry {
    std::unique_ptr<TimeSeries> series;  // stable address across push_back
    GaugeFn fn;
    std::int64_t stride{1};
  };

  core::Duration period_;
  std::size_t series_capacity_;
  std::int64_t ticks_{0};
  std::vector<Entry> entries_;
};

/// Finds a series by name in a snapshot list (null when absent).
[[nodiscard]] const SeriesSnapshot* find_series(const std::vector<SeriesSnapshot>& series,
                                                std::string_view name);

/// `{"series":{"<name>":{"period_ns":...,"bin_samples":...,"samples":...,
///   "bins":[[start_ns,count,min,max,last,sum],...]}}}` — series sorted by
/// name, integers only, byte-identical for equal snapshots.
[[nodiscard]] std::string timeseries_to_json(const std::vector<SeriesSnapshot>& series);

}  // namespace fbdcsim::telemetry
