#include "fbdcsim/telemetry/timeseries.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fbdcsim/telemetry/json.h"

namespace fbdcsim::telemetry {

TimeSeries::TimeSeries(std::string name, std::int64_t period_ns, std::size_t capacity)
    : name_{std::move(name)}, period_ns_{period_ns}, capacity_{capacity < 2 ? 2 : capacity} {
  // Pairwise compaction halves an even bin count; force even so a full ring
  // always compacts to exactly capacity_/2 completed bins.
  if (capacity_ % 2 != 0) ++capacity_;
  bins_.reserve(capacity_);
}

void TimeSeries::add_sample(std::int64_t t_ns, std::int64_t value) {
  ++samples_;
  if (cur_count_ == 0) {
    cur_ = SeriesBin{t_ns, 0, value, value, value, 0};
  }
  cur_.min = std::min(cur_.min, value);
  cur_.max = std::max(cur_.max, value);
  cur_.last = value;
  cur_.sum += value;
  ++cur_.count;
  ++cur_count_;
  if (cur_count_ < bin_samples_) return;
  bins_.push_back(cur_);
  cur_count_ = 0;
  if (bins_.size() >= capacity_) compact();
}

void TimeSeries::compact() {
  // Merge adjacent pairs in place: every statistic is conserved exactly
  // (sum/count add, min/max take extrema, last/start take the pair's ends).
  std::size_t w = 0;
  for (std::size_t r = 0; r + 1 < bins_.size(); r += 2) {
    SeriesBin merged = bins_[r];
    const SeriesBin& second = bins_[r + 1];
    merged.count += second.count;
    merged.min = std::min(merged.min, second.min);
    merged.max = std::max(merged.max, second.max);
    merged.last = second.last;
    merged.sum += second.sum;
    bins_[w++] = merged;
  }
  bins_.resize(w);
  bin_samples_ *= 2;
}

SeriesSnapshot TimeSeries::snapshot() const {
  SeriesSnapshot snap;
  snap.name = name_;
  snap.period_ns = period_ns_;
  snap.bin_samples = bin_samples_;
  snap.samples = samples_;
  snap.bins = bins_;
  if (cur_count_ > 0) snap.bins.push_back(cur_);
  return snap;
}

TimeSeriesProbe::TimeSeriesProbe(core::Duration period, std::size_t series_capacity)
    : period_{period}, series_capacity_{series_capacity} {
  if (period_.count_nanos() <= 0) {
    throw std::invalid_argument{"TimeSeriesProbe: period must be positive"};
  }
}

TimeSeries& TimeSeriesProbe::add_gauge(std::string name, GaugeFn fn, std::int64_t stride) {
  if (stride < 1) stride = 1;
  Entry entry;
  entry.series = std::make_unique<TimeSeries>(
      std::move(name), period_.count_nanos() * stride, series_capacity_);
  entry.fn = std::move(fn);
  entry.stride = stride;
  entries_.push_back(std::move(entry));
  return *entries_.back().series;
}

void TimeSeriesProbe::sample_tick(std::int64_t t_ns) {
  // Tick 0 samples every gauge, so even a one-tick run has a value per
  // series; a strided gauge then fires every stride-th tick after that.
  for (Entry& e : entries_) {
    if (ticks_ % e.stride == 0) e.series->add_sample(t_ns, e.fn());
  }
  ++ticks_;
}

std::vector<SeriesSnapshot> TimeSeriesProbe::snapshot() const {
  std::vector<SeriesSnapshot> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.series->snapshot());
  std::sort(out.begin(), out.end(),
            [](const SeriesSnapshot& a, const SeriesSnapshot& b) { return a.name < b.name; });
  return out;
}

const SeriesSnapshot* find_series(const std::vector<SeriesSnapshot>& series,
                                  std::string_view name) {
  for (const SeriesSnapshot& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string timeseries_to_json(const std::vector<SeriesSnapshot>& series) {
  std::vector<const SeriesSnapshot*> ordered;
  ordered.reserve(series.size());
  for (const SeriesSnapshot& s : series) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const SeriesSnapshot* a, const SeriesSnapshot* b) { return a->name < b->name; });

  std::string out;
  JsonWriter w{out};
  w.begin_object().key("series").begin_object();
  for (const SeriesSnapshot* s : ordered) {
    w.key(s->name)
        .begin_object()
        .field("period_ns", s->period_ns)
        .field("bin_samples", s->bin_samples)
        .field("samples", s->samples)
        .key("bins")
        .begin_array();
    for (const SeriesBin& b : s->bins) {
      w.begin_array()
          .value(b.start_ns)
          .value(b.count)
          .value(b.min)
          .value(b.max)
          .value(b.last)
          .value(b.sum)
          .end_array();
    }
    w.end_array().end_object();
  }
  w.end_object().end_object();
  return out;
}

}  // namespace fbdcsim::telemetry
