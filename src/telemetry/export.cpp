#include "fbdcsim/telemetry/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace fbdcsim::telemetry {

namespace {

/// %.17g round-trips doubles exactly and never depends on locale here
/// (metric names and numbers only).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_kv(std::string& out, const std::string& key, const std::string& raw_value,
               bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += json_escape(key);
  out += "\":";
  out += raw_value;
}

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

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_summary(std::FILE* out, const Snapshot& snapshot) {
  std::fprintf(out, "telemetry summary\n");
  std::fprintf(out, "  -- sim (deterministic: bit-identical across thread counts) --\n");
  summary_rows(out, snapshot, Kind::kSim);
  std::fprintf(out, "  -- wall (timing/scheduling dependent) --\n");
  summary_rows(out, snapshot, Kind::kWall);
}

std::string to_json(const Snapshot& snapshot) {
  std::string out = "{";
  bool first_kind = true;
  for (const Kind kind : {Kind::kSim, Kind::kWall}) {
    if (!first_kind) out += ',';
    first_kind = false;
    out += '"';
    out += to_string(kind);
    out += "\":{";

    out += "\"counters\":{";
    bool first = true;
    for (const auto& c : snapshot.counters) {
      if (c.kind == kind) append_kv(out, c.name, std::to_string(c.value), first);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& g : snapshot.gauges) {
      if (g.kind == kind) append_kv(out, g.name, std::to_string(g.value), first);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& h : snapshot.histograms) {
      if (h.kind != kind) continue;
      std::string body = "{";
      body += "\"count\":" + std::to_string(h.count);
      body += ",\"sum\":" + fmt_double(h.sum);
      body += ",\"min\":" + std::to_string(h.count > 0 ? h.min : 0);
      body += ",\"max\":" + std::to_string(h.count > 0 ? h.max : 0);
      body += ",\"mean\":" + fmt_double(h.mean());
      body += ",\"p50\":" + fmt_double(h.quantile(0.50));
      body += ",\"p90\":" + fmt_double(h.quantile(0.90));
      body += ",\"p99\":" + fmt_double(h.quantile(0.99));
      body += '}';
      append_kv(out, h.name, body, first);
    }
    out += "}}";
  }
  out += '}';
  return out;
}

namespace {

/// Renders the wall-span slice list (no enclosing document).
std::string wall_span_events(const std::vector<TraceEvent>& events) {
  std::string out;
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += json_escape(ev.name);
    out += "\",\"cat\":\"fbdcsim\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(ev.tid);
    out += ",\"ts\":";
    out += std::to_string(ev.start_us);
    out += ",\"dur\":";
    out += std::to_string(ev.dur_us);
    out += ",\"args\":{\"depth\":";
    out += std::to_string(ev.depth);
    out += "}}";
  }
  return out;
}

/// Sim-clock instant events, dumps already in canonical order. pid 2 keeps
/// the sim timeline in its own track group: the wall spans' ts values are
/// wall microseconds since program start, these are sim microseconds since
/// t=0 — Perfetto renders them side by side but they must never share a pid.
std::string sim_instant_events(const std::vector<TracePointDump>& dumps) {
  std::string out;
  bool first = true;
  for (const TracePointDump& d : dumps) {
    for (const TracePointRecord& r : d.records) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      out += to_string(r.kind);
      out += "\",\"cat\":\"fbdcsim.sim\",\"ph\":\"i\",\"s\":\"p\",\"pid\":2,\"tid\":";
      out += std::to_string(d.source_id);
      out += ",\"ts\":";
      out += std::to_string(r.t_ns / 1000);
      out += ",\"args\":{\"t_ns\":";
      out += std::to_string(r.t_ns);
      out += ",\"entity\":";
      out += std::to_string(r.entity);
      out += ",\"a\":";
      out += std::to_string(r.a);
      out += ",\"b\":";
      out += std::to_string(r.b);
      out += "}}";
    }
  }
  return out;
}

}  // namespace

std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                            std::vector<TracePointDump> tracepoints) {
  std::stable_sort(tracepoints.begin(), tracepoints.end(),
                   [](const TracePointDump& a, const TracePointDump& b) {
                     return a.source_id < b.source_id;
                   });
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::string wall = wall_span_events(events);
  const std::string sim = sim_instant_events(tracepoints);
  out += wall;
  if (!wall.empty() && !sim.empty()) out += ',';
  out += sim;
  out += "]}";
  return out;
}

}  // namespace fbdcsim::telemetry
