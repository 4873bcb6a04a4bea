#include "fbdcsim/telemetry/export.h"

#include <cinttypes>
#include <cstdio>

#include "fbdcsim/telemetry/json.h"

namespace fbdcsim::telemetry {

namespace {

void summary_rows(std::FILE* out, const Snapshot& snap, Kind kind) {
  for (const auto& c : snap.counters) {
    if (c.kind != kind) continue;
    std::fprintf(out, "  %-9s %-4s %-38s %20" PRId64 "\n", "counter", to_string(c.kind),
                 c.name.c_str(), c.value);
  }
  for (const auto& g : snap.gauges) {
    if (g.kind != kind) continue;
    std::fprintf(out, "  %-9s %-4s %-38s %20" PRId64 "\n", "gauge", to_string(g.kind),
                 g.name.c_str(), g.value);
  }
  for (const auto& h : snap.histograms) {
    if (h.kind != kind) continue;
    std::fprintf(out,
                 "  %-9s %-4s %-38s count %-10" PRId64 " mean %-12.4g p50 %-12.4g "
                 "p99 %-12.4g max %" PRId64 "\n",
                 "histogram", to_string(h.kind), h.name.c_str(), h.count, h.mean(),
                 h.quantile(0.50), h.quantile(0.99), h.max);
  }
}

}  // namespace

void print_summary(std::FILE* out, const Snapshot& snapshot) {
  std::fprintf(out, "telemetry summary\n");
  std::fprintf(out, "  -- sim (deterministic: bit-identical across thread counts) --\n");
  summary_rows(out, snapshot, Kind::kSim);
  std::fprintf(out, "  -- wall (timing/scheduling dependent) --\n");
  summary_rows(out, snapshot, Kind::kWall);
}

std::string to_json(const Snapshot& snapshot) {
  std::string out;
  JsonWriter w{out};
  w.begin_object();
  for (const Kind kind : {Kind::kSim, Kind::kWall}) {
    w.key(to_string(kind)).begin_object();
    w.key("counters").begin_object();
    for (const auto& c : snapshot.counters) {
      if (c.kind == kind) w.field(c.name, c.value);
    }
    w.end_object().key("gauges").begin_object();
    for (const auto& g : snapshot.gauges) {
      if (g.kind == kind) w.field(g.name, g.value);
    }
    w.end_object().key("histograms").begin_object();
    for (const auto& h : snapshot.histograms) {
      if (h.kind != kind) continue;
      w.key(h.name)
          .begin_object()
          .field("count", h.count)
          .field("sum", h.sum)
          .field("min", h.count > 0 ? h.min : 0)
          .field("max", h.count > 0 ? h.max : 0)
          .field("mean", h.mean())
          .field("p50", h.quantile(0.50))
          .field("p90", h.quantile(0.90))
          .field("p99", h.quantile(0.99))
          .end_object();
    }
    w.end_object().end_object();
  }
  w.end_object();
  return out;
}

std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                            std::vector<TracePointDump> tracepoints) {
  std::string out;
  JsonWriter w{out};
  w.begin_object().field("displayTimeUnit", "ms").key("traceEvents").begin_array();
  for (const TraceEvent& ev : events) {
    w.begin_object()
        .field("name", ev.name)
        .field("cat", "fbdcsim")
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", ev.tid)
        .field("ts", ev.start_us)
        .field("dur", ev.dur_us)
        .key("args")
        .begin_object()
        .field("depth", ev.depth)
        .end_object()
        .end_object();
  }
  // Sim-clock instants, in canonical source order. pid 2 keeps the sim
  // timeline in its own track group: the wall spans' ts values are wall
  // microseconds since program start, these are sim microseconds since
  // t=0 — Perfetto renders them side by side but they must never share a
  // pid.
  sort_by_source(tracepoints);
  for (const TracePointDump& d : tracepoints) {
    for (const TracePointRecord& r : d.records) {
      w.begin_object()
          .field("name", to_string(r.kind))
          .field("cat", "fbdcsim.sim")
          .field("ph", "i")
          .field("s", "p")
          .field("pid", 2)
          .field("tid", d.source_id)
          .field("ts", r.t_ns / 1000)
          .key("args")
          .begin_object()
          .field("t_ns", r.t_ns)
          .field("entity", r.entity)
          .field("a", r.a)
          .field("b", r.b)
          .end_object()
          .end_object();
    }
  }
  w.end_array().end_object();
  return out;
}

}  // namespace fbdcsim::telemetry
