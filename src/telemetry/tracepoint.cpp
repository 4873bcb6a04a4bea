#include "fbdcsim/telemetry/tracepoint.h"

#include <algorithm>
#include <cinttypes>
#include <exception>
#include <mutex>
#include <utility>

namespace fbdcsim::telemetry {

const char* to_string(TracePointKind kind) {
  switch (kind) {
    case TracePointKind::kPacketDrop:
      return "packet_drop";
    case TracePointKind::kRtoFired:
      return "rto_fired";
    case TracePointKind::kFastRtxEnter:
      return "fast_rtx_enter";
    case TracePointKind::kFastRtxExit:
      return "fast_rtx_exit";
    case TracePointKind::kFaultEpoch:
      return "fault_epoch";
    case TracePointKind::kHandshakeRetry:
      return "handshake_retry";
  }
  return "unknown";
}

TracePointLog::TracePointLog(std::uint64_t source_id, std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)), source_id_{source_id} {}

void TracePointLog::record(std::int64_t t_ns, TracePointKind kind, std::uint64_t entity,
                           std::int64_t a, std::int64_t b) noexcept {
  ring_[next_] = TracePointRecord{t_ns, entity, a, b, kind};
  next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
  ++total_;
}

void TracePointLog::record(const TransportEvent& e) noexcept {
  switch (e.kind) {
    case TransportEventKind::kRto:
      return record(e.t_ns, TracePointKind::kRtoFired, e.tag, e.a, e.b);
    case TransportEventKind::kFastRecovery:
    case TransportEventKind::kSackRecovery:
      return record(e.t_ns, TracePointKind::kFastRtxEnter, e.tag, e.a, e.b);
    case TransportEventKind::kRecoveryExit:
      return record(e.t_ns, TracePointKind::kFastRtxExit, e.tag, e.a, e.b);
    case TransportEventKind::kHandshakeRetry:
      return record(e.t_ns, TracePointKind::kHandshakeRetry, e.tag, e.a, e.b);
    default:
      return;
  }
}

TracePointDump TracePointLog::snapshot() const {
  TracePointDump dump;
  dump.source_id = source_id_;
  dump.total = total_;
  const std::size_t size = ring_.size();
  const bool wrapped = total_ >= static_cast<std::int64_t>(size);
  const std::size_t retained = wrapped ? size : static_cast<std::size_t>(total_);
  dump.records.reserve(retained);
  // Oldest retained record: where next_ points once the ring has wrapped.
  const std::size_t start = wrapped ? next_ : 0;
  for (std::size_t i = 0; i < retained; ++i) {
    dump.records.push_back(ring_[(start + i) % size]);
  }
  return dump;
}

void TracePointLog::dump(std::FILE* out) const {
  const TracePointDump d = snapshot();
  std::fprintf(out,
               "flight recorder: source=%" PRIu64 " total=%" PRId64 " retained=%zu\n",
               d.source_id, d.total, d.records.size());
  for (const TracePointRecord& r : d.records) {
    std::fprintf(out,
                 "  t_ns=%-15" PRId64 " %-16s entity=%-12" PRIu64 " a=%-12" PRId64
                 " b=%" PRId64 "\n",
                 r.t_ns, to_string(r.kind), r.entity, r.a, r.b);
  }
}

namespace {

struct Registry {
  std::mutex mu;
  std::vector<const TracePointLog*> logs;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during termination
  return *r;
}

std::terminate_handler g_previous_terminate = nullptr;

[[noreturn]] void terminate_with_dump() {
  std::fprintf(stderr, "fbdcsim: terminating — dumping flight recorders\n");
  FlightRecorders::dump_all(stderr);
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}

}  // namespace

void FlightRecorders::add(const TracePointLog* log) {
  if (log == nullptr) return;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock{r.mu};
  r.logs.push_back(log);
}

void FlightRecorders::remove(const TracePointLog* log) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock{r.mu};
  r.logs.erase(std::remove(r.logs.begin(), r.logs.end(), log), r.logs.end());
}

void FlightRecorders::dump_all(std::FILE* out) {
  Registry& r = registry();
  std::vector<const TracePointLog*> logs;
  {
    const std::lock_guard<std::mutex> lock{r.mu};
    logs = r.logs;
  }
  std::stable_sort(logs.begin(), logs.end(),
                   [](const TracePointLog* a, const TracePointLog* b) {
                     return a->source_id() < b->source_id();
                   });
  for (const TracePointLog* log : logs) log->dump(out);
}

void FlightRecorders::arm_crash_dump() {
  static std::once_flag once;
  std::call_once(once, [] { g_previous_terminate = std::set_terminate(terminate_with_dump); });
}

std::string tracepoints_to_jsonl(std::vector<TracePointDump> dumps) {
  std::stable_sort(dumps.begin(), dumps.end(),
                   [](const TracePointDump& a, const TracePointDump& b) {
                     return a.source_id < b.source_id;
                   });
  std::string out;
  for (const TracePointDump& d : dumps) {
    for (const TracePointRecord& r : d.records) {
      out += "{\"source\":";
      out += std::to_string(d.source_id);
      out += ",\"t_ns\":";
      out += std::to_string(r.t_ns);
      out += ",\"kind\":\"";
      out += to_string(r.kind);
      out += "\",\"entity\":";
      out += std::to_string(r.entity);
      out += ",\"a\":";
      out += std::to_string(r.a);
      out += ",\"b\":";
      out += std::to_string(r.b);
      out += "}\n";
    }
  }
  return out;
}

}  // namespace fbdcsim::telemetry
