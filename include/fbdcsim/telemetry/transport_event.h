// TransportEvent: the one typed record TransportMux reports per
// instrumentation site (DESIGN.md §11, §14).
//
// Each site builds one event, and the mux feeds it to three consumers:
// its own Stats (TransportMux::count derives ten counters from the kinds
// below — see DESIGN.md §14's table), the flight recorder
// (TracePointLog::record keeps RTO fire, fast-recovery entry and exit, and
// handshake retry), and the FlowLedger (FlowLedger::record folds every kind
// into its per-transfer records). All three read the same fields, so the
// counters, the recorder and the ledger cannot disagree about what a flow
// did.
#pragma once

#include <cstdint>

namespace fbdcsim::telemetry {

/// What happened. The per-kind comments name the fields the kind fills;
/// unnamed fields stay 0. `dir` is the half-stream (0 = out, 1 = in) for
/// every kind below kEstablished.
enum class TransportEventKind : std::uint8_t {
  kDemand = 0,     // len = bytes the application queued
  kAcked,          // seq = new snd_una, a = bytes demanded on the stream so far
  kDrop,           // [seq, seq + len) lost; a = FlowDropCause, b = egress port or -1
  kRetransmit,     // [seq, seq + len) resent; a = FlowRtxKind
  kFastRecovery,   // NewReno recovery entered; a = ssthresh, b = inflight
  kSackRecovery,   // SACK recovery entered; a = ssthresh, b = inflight
  kRecoveryExit,   // a = cwnd after the deflate
  kRto,            // seq = snd_una, a = cwnd after the collapse, b = backoff
  kEcnReduction,   // a = cwnd after the DCTCP cut
  kEstablished,    // handshake completed
  kSyn,            // SYN sent (first try or retry)
  kHandshakeRetry, // a = tries so far, b = connection state
  kRelease,        // connection slot recycled
};

struct TransportEvent {
  TransportEventKind kind{TransportEventKind::kDemand};
  std::uint8_t dir{0};
  std::uint32_t tag{0};  // generation-tagged flow tag of the connection
  std::int64_t t_ns{0};
  std::int64_t seq{0};
  std::int64_t len{0};
  std::int64_t a{0};
  std::int64_t b{0};
};

}  // namespace fbdcsim::telemetry
