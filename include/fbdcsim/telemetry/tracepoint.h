// Structured sim-time tracepoints and the per-rack flight recorder.
//
// Where metrics count and series sample, tracepoints answer "what exactly
// happened around t": each is a typed record (packet drop, RTO fire,
// fast-retransmit entry/exit, fault epoch transition, handshake retry)
// stamped with sim time and an entity id. A TracePointLog is a bounded ring
// allocated once at construction — recording is a few stores, never a
// malloc — and doubles as the flight recorder: when full it overwrites the
// oldest record, so it always holds the *last N* events leading up to
// whatever went wrong.
//
// Exports are canonical: dumps are ordered by source id (monitored-host id)
// and records within a source keep sim-time order, so JSONL output is
// bit-identical across FBDCSIM_THREADS=1/2/8 and merge orders.
// The Chrome-trace rendering emits sim-clock instant events on their own
// pid, never interleaved with the wall-clock spans of trace.h (the
// determinism contract made visible, DESIGN.md §11). Both renderings go
// through JsonWriter (json.h), the one writer behind every JSON document
// fbdcsim emits, and order dumps with its sort_by_source.
//
// The rack simulation instruments through FBDCSIM_T_TRACEPOINT below —
// fault epochs, and packet drops from the switch's one drop hook: a
// null-log check, or nothing at all when the build has
// -DFBDCSIM_TELEMETRY=OFF. TransportMux instead hands every TransportEvent to
// record(const TransportEvent&), which keeps the four transport kinds and
// ignores the rest. RackSimulation creates and attaches the log only when
// ObsConfig turns observability on for the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/telemetry/transport_event.h"

namespace fbdcsim::telemetry {

enum class TracePointKind : std::uint8_t {
  kPacketDrop = 0,      // entity=egress port, a=frame bytes, b=port queued bytes
  kRtoFired,            // entity=flow tag, a=cwnd after collapse, b=backoff
  kFastRtxEnter,        // entity=flow tag, a=ssthresh, b=inflight at entry
  kFastRtxExit,         // entity=flow tag, a=cwnd after deflate, b=0
  kFaultEpoch,          // entity=port (or ~0 for switch), a=epoch code, b=scaled factor
  kHandshakeRetry,      // entity=flow tag, a=tries so far, b=connection state
};

/// Stable lowercase identifier ("packet_drop", "rto_fired", ...).
[[nodiscard]] const char* to_string(TracePointKind kind);

/// kFaultEpoch `a` codes.
inline constexpr std::int64_t kFaultEpochBufferShrunk = 0;
inline constexpr std::int64_t kFaultEpochUplinkFailed = 1;
inline constexpr std::int64_t kFaultEpochUplinkDegraded = 2;

struct TracePointRecord {
  std::int64_t t_ns{0};
  std::uint64_t entity{0};
  std::int64_t a{0};
  std::int64_t b{0};
  TracePointKind kind{TracePointKind::kPacketDrop};
};

/// A log's value snapshot: the retained ring oldest-first, plus the total
/// ever recorded (total > records.size() means the ring wrapped).
struct TracePointDump {
  std::uint64_t source_id{0};
  std::int64_t total{0};
  std::vector<TracePointRecord> records;
};

/// Bounded tracepoint ring. One log per simulation (the rack's flight
/// recorder); record() is called from that simulation's thread only.
class TracePointLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit TracePointLog(std::uint64_t source_id, std::size_t capacity = kDefaultCapacity);

  void record(std::int64_t t_ns, TracePointKind kind, std::uint64_t entity,
              std::int64_t a = 0, std::int64_t b = 0) noexcept;
  /// Records kRto, kFast/kSackRecovery, kRecoveryExit and kHandshakeRetry as
  /// kRtoFired, kFastRtxEnter, kFastRtxExit and kHandshakeRetry with
  /// entity = flow tag and the event's a/b; ignores every other kind.
  void record(const TransportEvent& e) noexcept;

  [[nodiscard]] std::uint64_t source_id() const { return source_id_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Records ever taken, including ones the ring has since overwritten.
  [[nodiscard]] std::int64_t total_recorded() const { return total_; }

  [[nodiscard]] TracePointDump snapshot() const;

  /// Human-greppable dump (one line per retained record) — the flight
  /// recorder's crash output.
  void dump(std::FILE* out) const;

 private:
  std::vector<TracePointRecord> ring_;  // sized at construction, never grown
  std::size_t next_{0};
  std::int64_t total_{0};
  std::uint64_t source_id_;
};

/// Process-wide registry of live flight recorders, so a crash handler (or
/// FBDCSIM_OBS=dump) can dump every rack's last-N events without plumbing.
/// add/remove are mutex-guarded (captures run on pool threads); dump_all
/// orders by source id. Reading a log that is still recording is only done
/// on the way down — the terminate path — where a torn ring beats silence.
class FlightRecorders {
 public:
  static void add(const TracePointLog* log);
  static void remove(const TracePointLog* log);
  /// Dumps every registered recorder, ordered by source id.
  static void dump_all(std::FILE* out);
  /// Installs (once per process) a std::terminate handler that dumps all
  /// registered recorders to stderr before chaining to the previous handler.
  static void arm_crash_dump();
};

/// One JSON object per line:
/// `{"source":...,"t_ns":...,"kind":"...","entity":...,"a":...,"b":...}`.
/// Dumps are ordered by source id (stable for ties), records kept in ring
/// order — canonical and bit-identical for equal inputs.
[[nodiscard]] std::string tracepoints_to_jsonl(std::vector<TracePointDump> dumps);

}  // namespace fbdcsim::telemetry

#if FBDCSIM_TELEMETRY_ENABLED

/// Records a tracepoint when `log` (a TracePointLog*) is wired up. `kind` is
/// the bare enumerator token (PacketDrop, RtoFired, ...). Compiles away
/// under -DFBDCSIM_TELEMETRY=OFF.
#define FBDCSIM_T_TRACEPOINT(log, t_ns, kind, entity, a, b)                \
  do {                                                                     \
    if ((log) != nullptr) {                                                \
      (log)->record((t_ns), ::fbdcsim::telemetry::TracePointKind::k##kind, \
                    (entity), (a), (b));                                   \
    }                                                                      \
  } while (0)

#else  // FBDCSIM_TELEMETRY_ENABLED

#define FBDCSIM_T_TRACEPOINT(log, t_ns, kind, entity, a, b) \
  do {                                                      \
  } while (0)

#endif  // FBDCSIM_TELEMETRY_ENABLED
