// TransportMux: the flow-level TCP engine of one simulated rack.
//
// Owns the rack's connections (one TcpConnection per application
// connection, allocated from a core::Pool and named by a dense slot) and
// converts the byte demands services queue through the DemandSink interface
// into real packet streams: SYN/SYN-ACK/ACK handshakes, MSS-segmented data
// ACK-clocked by a Reno/NewReno congestion window, fast retransmit on
// duplicate ACKs, and RTO recovery — all driven by actual
// SharedBufferSwitch deliveries and drops plus the fault plan's
// beyond-the-RSW path-loss decisions. Packet sizes, SYN interarrivals and
// burst structure are therefore emergent, not scripted.
//
// Substitution model (one rack simulated, the rest of the fleet
// synthetic): each connection has two directed half-streams. The `out`
// half's sender runs on the modelled host — its segments really traverse
// the RSW (host_send), and the far receiver is synthesized at RSW egress,
// its ACKs re-entering after the connection's beyond-RSW round trip. The
// `in` half mirrors this: the remote sender runs inside the mux and its
// segments enter through host_receive at the monitored host's downlink —
// the exact fan-in point where shared-buffer congestion forms — while the
// modelled host acks them with real packets. Forward propagation beyond
// the RSW is folded into each half's feedback path, so first-byte timing
// matches the scripted path and the feedback-loop length equals the full
// path RTT. A transport::Dir (demand.h) names a half — kOut the out half,
// kIn the in half — and DemandSink's open and app_send take one, so both
// halves run the same code.
//
// Observability (DESIGN.md §11/§14): each instrumentation site reports one
// telemetry::TransportEvent through the private emit(). emit() first folds
// the event into Stats (count()), then hands it to whichever of the two
// sinks is installed — the flight recorder (TracePointLog) and the per-flow
// ledger (FlowLedger) — so a counter and the records of the same kind
// cannot disagree. A connection's birth context goes to the ledger's
// on_birth, the one event too wide for TransportEvent. With both sinks null
// (the default) every site is its counter increments plus one branch.
//
// Engine contract (DESIGN.md §9/§10): every scheduled lambda fits
// sim::InlineAction's inline storage (events stay heap-free) and
// connections recycle through a pool. No lookup goes through the 5-tuple:
// the caller's ConnHandle (demand.h) names the slot and its full-width
// epoch, so a DemandSink call resolves with one slot load and creates a
// connection only when the handle does not resolve. In-flight packets carry
// `flow_tag` = ((slot + 1) << 8) | (epoch & 0xFF); events resolving a stale
// tag (connection since recycled) are ignored.
#pragma once

#include <cstdint>
#include <vector>

#include "fbdcsim/core/arena.h"
#include "fbdcsim/core/packet.h"
#include "fbdcsim/services/traffic_model.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/telemetry/transport_event.h"
#include "fbdcsim/topology/entities.h"
#include "fbdcsim/transport/demand.h"
#include "fbdcsim/transport/params.h"
#include "fbdcsim/transport/tcp.h"

namespace fbdcsim::faults {
class FaultPlan;
}  // namespace fbdcsim::faults

namespace fbdcsim::telemetry {
class FlowLedger;
class TimeSeriesProbe;
class TracePointLog;
}  // namespace fbdcsim::telemetry

namespace fbdcsim::transport {

class TransportMux final : public DemandSink {
 public:
  /// Aggregate counters, maintained across connection recycling (live
  /// connections' in-progress byte counts are NOT included — sum those via
  /// for_each_connection).
  struct Stats {
    // Derived from the event stream: count() folds each TransportEvent into
    // these as emit() reports it, so they always equal what the recorder and
    // the ledger saw (the event kind that feeds each is named).
    std::int64_t connections_destroyed{0};  // kRelease
    std::int64_t handshakes_completed{0};   // kEstablished
    std::int64_t bytes_demanded{0};         // sum of kDemand len
    std::int64_t retransmit_segments{0};    // kRetransmit
    std::int64_t bytes_retransmitted{0};    // sum of kRetransmit len
    // Retransmissions split by repair kind (kRetransmit a, all recovery
    // modes): a segment resent while its half-stream is in fast recovery
    // was dupack-driven; anything else is the go-back-N stream after a
    // timeout.
    std::int64_t rtx_dupack_segments{0};
    std::int64_t rtx_rto_segments{0};
    std::int64_t fast_retransmits{0};        // kFastRecovery + kSackRecovery
    std::int64_t rto_fired{0};               // kRto
    std::int64_t dctcp_cwnd_reductions{0};   // kEcnReduction (cc == kDctcp only)

    // Direct counts: no TransportEvent carries these facts — per-segment
    // sends, deliveries and SACK/ECN marks (an event per segment would put
    // a ledger call on every packet), births (which go to the ledger's
    // on_birth), handshake give-ups (reported only as a kRelease),
    // control-packet path loss, and switch notifications for stale tags or
    // zero payloads.
    std::int64_t connections_created{0};
    std::int64_t handshake_failures{0};
    std::int64_t segments_sent{0};
    std::int64_t path_loss_drops{0};
    std::int64_t switch_drop_notifications{0};
    std::int64_t bytes_delivered{0};  // receiver-side in-order advance
    // SACK (recovery == kSack only; zero otherwise):
    std::int64_t sack_blocks_recorded{0};    // scoreboard merges that added bytes
    std::int64_t sack_bytes{0};              // bytes newly marked sacked
    std::int64_t sack_retransmits{0};        // pipe-gated hole retransmissions
    std::int64_t sack_rescue_retransmits{0}; // rule-4 tail rescues
    // DCTCP (cc == kDctcp only; zero otherwise):
    std::int64_t ecn_ce_segments{0};  // CE-marked data seen at receivers
    std::int64_t ecn_echoed_acks{0};  // ACKs sent with ECE set
  };

  /// `sink` is the rack simulation (must outlive the mux); `faults` may be
  /// null.
  TransportMux(sim::Simulator& sim, const topology::Fleet& fleet,
               services::TrafficSink& sink, TcpParams params,
               const faults::FaultPlan* faults);
  ~TransportMux() override;

  TransportMux(const TransportMux&) = delete;
  TransportMux& operator=(const TransportMux&) = delete;

  // ---- DemandSink (called by services::Wire) ----
  [[nodiscard]] ConnHandle open(Dir dir, ConnHandle handle, const core::FiveTuple& tuple,
                                core::HostId self, core::HostId peer,
                                core::TimePoint start) override;
  [[nodiscard]] ConnHandle app_send(Dir dir, ConnHandle handle, const core::FiveTuple& tuple,
                                    core::HostId self, core::HostId peer, std::int64_t bytes,
                                    core::TimePoint start, core::Duration pace_gap) override;
  [[nodiscard]] ConnHandle app_close(ConnHandle handle, const core::FiveTuple& tuple,
                                     core::HostId self, core::HostId peer,
                                     core::TimePoint start) override;

  // ---- switch callbacks (wired up by the rack simulation) ----
  /// A packet finished transmission on some RSW egress port.
  void on_delivered(const core::SimPacket& packet);
  /// DT admission rejected a packet (a real shared-buffer drop) on the
  /// given egress port — the causal fact the flow ledger attributes
  /// retransmissions to.
  void on_dropped(std::size_t port, const core::SimPacket& packet);

  // ---- observability (wired up by the rack simulation) ----
  /// Installs (or clears) the event sinks: `recorder` keeps RTO fires,
  /// fast-recovery transitions and handshake retries, `ledger`
  /// (FBDCSIM_OBS=flows) every event. Both null by default, so runs without
  /// the opt-in stay byte-identical.
  void set_observers(telemetry::TracePointLog* recorder, telemetry::FlowLedger* ledger) {
    recorder_ = recorder;
    ledger_ = ledger;
  }
  /// Registers the mux's sim-time gauges on `probe`: live connection count
  /// and the out-half cwnd/ssthresh/inflight aggregates plus pending-RTO
  /// timer count, summed over live connections in slot order. The sums are
  /// O(live connections) per sample — a Web rack holds ~10^4 — so every
  /// gauge here registers with a fixed stride of 100 probe ticks to stay
  /// off the probe's full-rate cadence.
  void register_probes(telemetry::TimeSeriesProbe& probe) const;

  // ---- introspection (tests, benches) ----
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t live_connections() const;
  /// Visits live connections in slot order (deterministic).
  template <typename F>
  void for_each_connection(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.conn != nullptr) f(*s.conn);
    }
  }

 private:
  /// One connection slot: `conn` is null while the slot is free, and
  /// `epoch` counts the releases of the slot (its low byte is the tag's
  /// generation).
  struct Slot {
    TcpConnection* conn{nullptr};
    std::uint32_t epoch{0};
  };
  /// Control packets / bookkeeping steps small enough to share one event
  /// shape. kXxxIn emits via host_receive.
  enum class Ctrl : std::uint8_t {
    kSynAckIn,      // peer's SYN-ACK arrives (outbound open)
    kHsAckIn,       // peer's final handshake ACK arrives (inbound open)
    kFinAckIn,      // peer's FIN-ACK arrives
    kClose,         // application close requested
  };

  TcpConnection* resolve(std::uint32_t tag);
  /// Leaves `handle` as is when it names a live connection; otherwise
  /// creates one in `initial` state and writes its handle to `handle`.
  void ensure(ConnHandle& handle, const core::FiveTuple& tuple, core::HostId self,
              core::HostId peer, ConnState initial);
  void release(TcpConnection& c);
  [[nodiscard]] HalfStream& half(TcpConnection& c, Dir dir) const {
    return dir == Dir::kOut ? c.out : c.in;
  }

  [[nodiscard]] core::Duration rto_for(const TcpConnection& c, const HalfStream& h) const;
  [[nodiscard]] bool path_lost(TcpConnection& c);

  void establish(TcpConnection& c);
  void on_ctrl(std::uint32_t tag, Ctrl ctrl);
  /// The `dir` end's handshake starts: self's SYN leaves, or the peer's
  /// SYN arrives at the RSW.
  void on_open(std::uint32_t tag, Dir dir);
  /// Emits the opener's SYN (self's in kSynSent, the peer's in
  /// kSynReceived) and reports it.
  void send_syn(TcpConnection& c);
  void on_demand(std::uint32_t tag, Dir dir, std::int64_t bytes, core::Duration pace_gap);
  void on_ack_at_sender(TcpConnection& c, Dir dir, std::int64_t ackno, bool ece,
                        std::int64_t sack_lo = 0, std::int64_t sack_hi = 0);
  void on_data_at_receiver(TcpConnection& c, Dir dir, std::int64_t seq, std::int64_t len,
                           bool psh, bool ce);
  void on_rto_event(std::uint32_t tag, Dir dir);
  void on_hs_event(std::uint32_t tag);
  void pump(TcpConnection& c, Dir dir);
  /// The kSack in-recovery transmission loop: sends whatever sack_next_seg
  /// selects while sack_pipe stays below cwnd (RFC 6675 §5 step C).
  void pump_sack_recovery(TcpConnection& c, Dir dir);
  /// Sends one sack_next_seg selection and applies its bookkeeping
  /// (high_rtx / rescue flag / snd_nxt advance plus the sack counters).
  void send_sack_selected(TcpConnection& c, Dir dir, const SackNextSeg& ns);
  void try_close(TcpConnection& c);
  void arm_rto(TcpConnection& c, Dir dir);
  void arm_hs(TcpConnection& c);

  /// Schedules the paced emission of one data segment.
  void send_segment(TcpConnection& c, Dir dir, std::int64_t seq, std::int64_t len);
  /// Emits a packet on the wire right now. Data/ACK/control alike; `dir`
  /// picks host_send (kOut) vs host_receive (kIn). A nonempty SACK block
  /// (sack_hi > sack_lo) rides on the packet and grows its frame by the
  /// option bytes.
  void emit_now(TcpConnection& c, Dir dir, std::int64_t payload, core::TcpFlags flags,
                std::int64_t seq, std::int64_t ackno, std::int64_t sack_lo = 0,
                std::int64_t sack_hi = 0);
  /// Reports one TransportEvent about `c`, stamped now: count() folds it
  /// into stats_, then whichever sinks are installed record it
  /// (telemetry/transport_event.h names each kind's fields). Inline, and
  /// every site passes a constant kind, so with no sink installed a site
  /// compiles to its counter increments plus one branch.
  inline void emit(telemetry::TransportEventKind kind, const TcpConnection& c, Dir dir = Dir::kOut,
            std::int64_t seq = 0, std::int64_t len = 0, std::int64_t a = 0,
            std::int64_t b = 0);
  /// The Stats fields derived from events (the first group of Stats).
  inline void count(const telemetry::TransportEvent& e);

  sim::Simulator* sim_;
  const topology::Fleet* fleet_;
  services::TrafficSink* sink_;
  TcpParams params_;
  const faults::FaultPlan* faults_;
  bool faults_enabled_{false};
  telemetry::TracePointLog* recorder_{nullptr};
  telemetry::FlowLedger* ledger_{nullptr};

  core::Arena arena_;
  core::Pool<TcpConnection> pool_{arena_};
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Stats stats_;
};

}  // namespace fbdcsim::transport
