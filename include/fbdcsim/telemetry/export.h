// Exporters: turn Snapshots and trace events into things humans and tools
// consume.
//
//   - print_summary: an aligned table on a FILE*, sim-kind metrics first,
//     wall-kind metrics after a separator (the determinism contract made
//     visible).
//   - to_json: the Snapshot as a JSON object with "sim" and "wall"
//     sections — the payload BenchReport embeds in bench_<name>.json.
//   - to_chrome_trace: wall-clock spans and sim-clock tracepoints as a
//     Chrome trace-event JSON document, loadable in chrome://tracing and
//     https://ui.perfetto.dev.
//
// Both JSON documents are written by JsonWriter (json.h), the one writer
// behind every JSON document fbdcsim emits.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "fbdcsim/telemetry/json.h"
#include "fbdcsim/telemetry/metrics.h"
#include "fbdcsim/telemetry/trace.h"
#include "fbdcsim/telemetry/tracepoint.h"

namespace fbdcsim::telemetry {

/// Aligned, human-readable dump of every metric, grouped by Kind.
void print_summary(std::FILE* out, const Snapshot& snapshot);

/// `{"sim": {"counters": {...}, "gauges": {...}, "histograms": {...}},
///   "wall": {...}}`. Histograms export count/sum/min/max/mean and
/// p50/p90/p99 (bins are summarized, not dumped). Keys are sorted, output
/// has no whitespace dependence on locale, and repeated calls on the same
/// snapshot are byte-identical.
[[nodiscard]] std::string to_json(const Snapshot& snapshot);

/// Chrome trace-event format: a `{"traceEvents": [...]}` document of the
/// wall-clock spans as "X"-phase slices plus the sim-clock tracepoints as
/// instant ("i") events. The two clocks never mix — spans render on pid 1
/// under cat "fbdcsim", tracepoints on pid 2 under cat "fbdcsim.sim" with
/// ts = sim microseconds, in canonical source-id order. An empty tracepoint
/// list yields the spans-only document.
[[nodiscard]] std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                                          std::vector<TracePointDump> tracepoints);

}  // namespace fbdcsim::telemetry
