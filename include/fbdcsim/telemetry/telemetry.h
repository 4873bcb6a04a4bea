// Telemetry: the simulator's own observability layer.
//
// The paper's contribution is making Facebook's fabric observable (Fbflow,
// port mirroring, Scribe -> Scuba); this module does the same for the
// simulator itself. It provides
//
//   - MetricsRegistry (metrics.h): sharded, contention-free counters,
//     gauges, and histograms, merged on snapshot;
//   - TraceSpan (trace.h): hierarchical wall-clock timing spans,
//     exportable as Chrome trace events;
//   - exporters (export.h): human-readable summary tables, JSON snapshots,
//     and chrome://tracing / Perfetto-loadable trace files.
//
// One switch controls cost: the FBDCSIM_TELEMETRY CMake option (default
// ON). When OFF, the FBDCSIM_T_* instrumentation macros below expand to
// nothing, so instrumented code carries zero overhead. The telemetry
// classes themselves always compile (their unit tests run in both modes).
// When ON, every instrumentation site records unconditionally. The heavy
// sim-time layer (probes, flight recorder, flow ledger) is a separate
// opt-in per run: ObsConfig / FBDCSIM_OBS (obs.h).
//
// Determinism contract (DESIGN.md §7): every metric is declared with a
// Kind. Kind::kSim metrics are derived purely from simulation state and are
// bit-identical across thread counts and schedules; Kind::kWall metrics
// (latencies, queue depths, utilization) depend on wall clock or scheduling
// and are segregated in every export, so the runtime/ bit-identity gates
// never compare them.
#pragma once

#include "fbdcsim/telemetry/metrics.h"
#include "fbdcsim/telemetry/trace.h"

// The CMake option FBDCSIM_TELEMETRY=OFF defines FBDCSIM_TELEMETRY_ENABLED=0
// globally; any other build (including non-CMake consumers) defaults to ON.
#ifndef FBDCSIM_TELEMETRY_ENABLED
#define FBDCSIM_TELEMETRY_ENABLED 1
#endif

#if FBDCSIM_TELEMETRY_ENABLED

/// Declares a function-local static handle bound to the global registry.
/// `kind` is the bare token Sim or Wall (see the determinism contract).
#define FBDCSIM_T_COUNTER(var, name, kind)                          \
  static ::fbdcsim::telemetry::Counter& var =                       \
      ::fbdcsim::telemetry::MetricsRegistry::global().counter(      \
          (name), ::fbdcsim::telemetry::Kind::k##kind)
#define FBDCSIM_T_GAUGE(var, name, kind)                            \
  static ::fbdcsim::telemetry::Gauge& var =                         \
      ::fbdcsim::telemetry::MetricsRegistry::global().gauge(        \
          (name), ::fbdcsim::telemetry::Kind::k##kind)
#define FBDCSIM_T_HISTOGRAM(var, name, kind)                        \
  static ::fbdcsim::telemetry::Histogram& var =                     \
      ::fbdcsim::telemetry::MetricsRegistry::global().histogram(    \
          (name), ::fbdcsim::telemetry::Kind::k##kind)

/// Mutations on a handle declared by the macros above.
#define FBDCSIM_T_ADD(var, n) (var).add(n)
#define FBDCSIM_T_MAX(var, v) (var).update_max(v)
#define FBDCSIM_T_OBSERVE(var, v) (var).observe(v)

/// Scoped timing spans recorded into the global Tracer.
#define FBDCSIM_T_SPAN(var, name) ::fbdcsim::telemetry::TraceSpan var { name }
#define FBDCSIM_T_SPAN2(var, name, detail) \
  ::fbdcsim::telemetry::TraceSpan var { (name), (detail) }

#else  // FBDCSIM_TELEMETRY_ENABLED

#define FBDCSIM_T_COUNTER(var, name, kind) \
  do {                                     \
  } while (0)
#define FBDCSIM_T_GAUGE(var, name, kind) \
  do {                                   \
  } while (0)
#define FBDCSIM_T_HISTOGRAM(var, name, kind) \
  do {                                       \
  } while (0)
#define FBDCSIM_T_ADD(var, n) \
  do {                        \
  } while (0)
#define FBDCSIM_T_MAX(var, v) \
  do {                        \
  } while (0)
#define FBDCSIM_T_OBSERVE(var, v) \
  do {                            \
  } while (0)
#define FBDCSIM_T_SPAN(var, name) \
  do {                            \
  } while (0)
#define FBDCSIM_T_SPAN2(var, name, detail) \
  do {                                     \
  } while (0)

#endif  // FBDCSIM_TELEMETRY_ENABLED
