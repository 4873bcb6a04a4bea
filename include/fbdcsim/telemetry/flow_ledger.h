// FlowLedger: per-flow causal lifecycle records (DESIGN.md §14).
//
// Where TimeSeriesProbe answers "when" and TracePointLog answers "what
// event", the ledger stitches events into per-flow stories: one record per
// *directed transfer* (a demand burst on one half-stream of a TcpConnection,
// from first queued byte to the ACK that drains it) carrying
//
//   - birth context: generation-tagged flow tag, 5-tuple, monitored-host
//     role, peer role, locality class, topology-derived base RTT and
//     bottleneck rate;
//   - handshake milestones: SYN (re)send count and established time,
//     stamped from the owning connection (-1 when the connection was pooled
//     and never handshook inside the run);
//   - loss events with causal attribution: every switch drop (switch id +
//     egress port + sim time, plus the fault-epoch id when a faults/
//     decision shrank the buffer), every beyond-RSW path-loss draw, and —
//     from the scripted-loss test harness — injected drops. Each drop gets
//     a ledger-wide monotone attribution id that never changes, even after
//     ring eviction discards the record that owned it;
//   - retransmissions, each linked back to its cause: a retransmitted
//     segment claims the earliest unclaimed drop overlapping its byte
//     range; go-back-N resends after a timeout inherit the drop that
//     caused the RTO; anything else (e.g. an ACK lost on the return path)
//     stays unattributed with cause_id = -1;
//   - recovery-law episodes: fast-recovery / SACK-episode enter+exit
//     intervals (never overlapping per record — entering twice without an
//     exit is impossible by construction), RTO fires and ECN-driven cwnd
//     reductions as point episodes;
//   - completion: FCT (first demand to full ACK), transfer bytes,
//     retransmitted bytes, and the ideal FCT (base RTT + bytes at the
//     bottleneck rate) consumers divide by for slowdown.
//
// Feed: TransportMux reports each connection's birth context through
// on_birth and everything after it as TransportEvents through record() — the
// same events its flight recorder reads (telemetry/transport_event.h). Its
// own state is the birth context, SYN count and established time, the open
// record per half-stream, and the drop the last RTO was pinned on. Stream
// edges (snd_una, demanded bytes) arrive in the events and the recovery
// state is read off the open record's episodes, so no mux state is
// mirrored here.
//
// Determinism contract: the ledger is fed exclusively from the owning
// simulation's thread, stores only sim-derived integers, and keeps records
// in a bounded ring (completion order, oldest evicted first) —
// so flows_to_jsonl output is bit-identical across FBDCSIM_THREADS
// settings, and empty (byte-identical-off) unless
// FBDCSIM_OBS=flows opted in. flows_to_jsonl renders through JsonWriter
// (json.h), the one writer behind every JSON document fbdcsim emits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fbdcsim/core/arena.h"
#include "fbdcsim/core/flow.h"
#include "fbdcsim/core/packet.h"
#include "fbdcsim/telemetry/transport_event.h"

namespace fbdcsim::telemetry {

/// What removed a data segment from the wire.
enum class FlowDropCause : std::uint8_t {
  kSwitchBuffer = 0,  // DT admission rejected it at the shared-buffer switch
  kPathLoss,          // the fault plan's beyond-RSW loss draw ate it
  kScripted,          // a test harness (tests/support/scripted_loss.h) dropped it
};

[[nodiscard]] const char* to_string(FlowDropCause cause);

/// kFaultEpoch code for drop records whose cause was a faults/ path-loss
/// draw (extends the tracepoint.h kFaultEpoch* codes, which cover the t=0
/// epoch decisions).
inline constexpr std::int64_t kFaultEpochPathLoss = 3;

enum class FlowRtxKind : std::uint8_t {
  kDupack = 0,  // sent while the half-stream was in fast recovery
  kRto,         // go-back-N stream after a timeout
};

[[nodiscard]] const char* to_string(FlowRtxKind kind);

enum class FlowEpisodeKind : std::uint8_t {
  kFastRecovery = 0,  // NewReno dupack-triggered episode (interval)
  kSackRecovery,      // RFC 6675 scoreboard episode (interval)
  kRto,               // timeout fired (point: end == start, detail = backoff)
  kEcnReduction,      // DCTCP alpha-scaled cut (point, detail = cwnd after)
};

[[nodiscard]] const char* to_string(FlowEpisodeKind kind);

/// One observed drop. `id` is ledger-wide, monotone from 1, and stable for
/// the life of the ledger — retransmissions reference it via cause_id.
struct FlowDropEvent {
  std::int64_t id{0};
  std::int64_t t_ns{0};
  std::int64_t seq{0};
  std::int64_t len{0};
  FlowDropCause cause{FlowDropCause::kSwitchBuffer};
  bool claimed{false};           // some retransmission linked back to it
  std::int32_t port{-1};         // switch egress port; -1 for path loss
  std::uint64_t switch_id{0};    // meaningful for kSwitchBuffer only
  std::int64_t fault_epoch{-1};  // kFaultEpoch* code when faults/ caused it
};

struct FlowRtxEvent {
  std::int64_t t_ns{0};
  std::int64_t seq{0};
  std::int64_t len{0};
  std::int64_t cause_id{-1};  // FlowDropEvent::id, or -1 = unattributed
  FlowRtxKind kind{FlowRtxKind::kDupack};
};

struct FlowEpisode {
  std::int64_t start_ns{0};
  std::int64_t end_ns{-1};  // -1 = still open when the record closed
  std::int64_t detail{0};   // kRto: backoff step; kEcnReduction: cwnd after
  FlowEpisodeKind kind{FlowEpisodeKind::kFastRecovery};
};

inline constexpr std::size_t kFlowMaxDrops = 8;
inline constexpr std::size_t kFlowMaxRtx = 16;
inline constexpr std::size_t kFlowMaxEpisodes = 8;

/// One directed transfer. Retained event arrays are bounded; the *_total
/// counters keep counting past the bounds (drops_total > drop_count means
/// the array overflowed and later drops kept only their count).
struct FlowLedgerRecord {
  std::int64_t id{0};  // ledger-wide record id, monotone with transfer start
  std::uint32_t flow_tag{0};
  std::uint8_t dir{0};  // 0 = out (monitored host sends), 1 = in
  core::HostRole role{core::HostRole::kWeb};
  core::HostRole peer_role{core::HostRole::kWeb};
  core::Locality locality{core::Locality::kIntraRack};
  core::FiveTuple tuple{};  // out-direction orientation (self -> peer)

  std::int64_t conn_born_ns{-1};
  std::int64_t syn_sends{0};
  std::int64_t established_ns{-1};  // -1: pooled (handshake predates the run)

  std::int64_t start_ns{-1};      // first demand of this transfer
  std::int64_t completed_ns{-1};  // all bytes acked; -1 = never completed
  std::int64_t bytes{0};          // demand bytes the transfer carried
  std::int64_t rtx_bytes{0};
  std::int64_t rtt_ns{0};             // this direction's feedback-loop RTT
  std::int64_t bottleneck_bps{0};     // bottleneck rate, bytes per second
  std::int64_t ideal_ns{0};           // rtt_ns + bytes at bottleneck_bps

  std::int64_t drops_total{0};
  std::int64_t rtx_total{0};
  std::int64_t rto_count{0};
  std::int64_t ecn_reductions{0};

  std::size_t drop_count{0};
  std::size_t rtx_count{0};
  std::size_t episode_count{0};
  FlowDropEvent drops[kFlowMaxDrops]{};
  FlowRtxEvent rtxs[kFlowMaxRtx]{};
  FlowEpisode episodes[kFlowMaxEpisodes]{};

  [[nodiscard]] bool completed() const { return completed_ns >= 0; }
  [[nodiscard]] std::int64_t fct_ns() const {
    return completed() ? completed_ns - start_ns : -1;
  }
  /// FCT / ideal FCT; 0 for incomplete records.
  [[nodiscard]] double slowdown() const {
    if (!completed() || ideal_ns <= 0) return 0.0;
    return static_cast<double>(fct_ns()) / static_cast<double>(ideal_ns);
  }
};

/// A ledger's value snapshot: the retained ring oldest-first plus the
/// counts eviction discarded.
struct FlowLedgerDump {
  std::uint64_t source_id{0};
  std::int64_t total{0};        // records ever closed (total > records.size()
                                // means the ring evicted)
  std::int64_t stray_events{0};  // drop/rtx/episode events with no open transfer
  std::vector<FlowLedgerRecord> records;
};

/// `rtt_ns + bytes / bottleneck_bytes_per_sec`, exact integer arithmetic.
[[nodiscard]] std::int64_t ideal_fct_ns(std::int64_t bytes, std::int64_t rtt_ns,
                                        std::int64_t bottleneck_bytes_per_sec);

/// Bounded transfer ledger. One per simulation; fed from that simulation's
/// thread only. Unknown flow tags are ignored (stale packets from recycled
/// connections, or a ledger attached mid-run).
///
/// The ring is a vector of `capacity` records, allocated and zeroed at
/// construction so a run pays its page faults up front. Open transfers live
/// in an arena pool until they close into the ring.
class FlowLedger {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// `switch_id` stamps switch-buffer drops; `switch_drop_fault_epoch` is the
  /// kFaultEpoch* code stamped on them when a faults/ decision (buffer
  /// shrink) is in force, -1 otherwise.
  explicit FlowLedger(std::uint64_t source_id, std::size_t capacity = kDefaultCapacity,
                      std::uint64_t switch_id = 0, std::int64_t switch_drop_fault_epoch = -1);

  FlowLedger(const FlowLedger&) = delete;
  FlowLedger& operator=(const FlowLedger&) = delete;

  /// A connection appears: the context every record on it inherits.
  void on_birth(std::uint32_t tag, std::int64_t t_ns, const core::FiveTuple& tuple,
                core::HostRole role, core::HostRole peer_role, core::Locality locality,
                std::int64_t rtt_out_ns, std::int64_t rtt_in_ns,
                std::int64_t bottleneck_bytes_per_sec);
  /// Folds one transport event into the tag's records. kDemand opens or
  /// extends a transfer; kAcked closes it once snd_una reaches the demand;
  /// kRelease closes open transfers as incomplete and forgets the tag.
  /// Drop, retransmit, recovery, RTO and ECN events with no open transfer
  /// count as stray; kHandshakeRetry is the flight recorder's alone.
  void record(const TransportEvent& e);

  /// End of capture: flushes every still-open transfer into the ring as
  /// incomplete, in connection-creation order (deterministic).
  void finalize();

  [[nodiscard]] std::uint64_t source_id() const { return source_id_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t total_closed() const { return total_; }
  [[nodiscard]] std::int64_t live_transfers() const { return open_transfers_; }
  [[nodiscard]] std::int64_t stray_events() const { return stray_events_; }
  /// Transfers that closed after take(), which the ledger no longer retains.
  [[nodiscard]] std::int64_t dropped_after_take() const { return dropped_after_take_; }

  /// Copies the retained ring, oldest-first. No records after take().
  [[nodiscard]] FlowLedgerDump snapshot() const;

  /// Hands the ring over: returns what snapshot() would, but rotates the
  /// ring in place to oldest-first and moves it into the dump instead of
  /// copying it. A ring that never filled keeps its full capacity in the
  /// dump. Terminal: the ledger has no ring afterwards, so a transfer that
  /// closes later is counted in dropped_after_take(), not in total_closed(),
  /// and another take() returns no records. Events are still folded into
  /// open transfers and strays are still counted.
  [[nodiscard]] FlowLedgerDump take();

 private:
  struct HalfLive {
    FlowLedgerRecord* open{nullptr};  // pooled; null when drained
    std::int64_t rto_cause_id{-1};    // drop the last RTO was pinned on
  };
  struct ConnLive {
    std::uint32_t tag{0};    // the flow tag born into this entry
    std::int64_t serial{0};  // creation order, the finalize() sort key; 0 = free
    core::FiveTuple tuple{};
    core::HostRole role{core::HostRole::kWeb};
    core::HostRole peer_role{core::HostRole::kWeb};
    core::Locality locality{core::Locality::kIntraRack};
    std::int64_t born_ns{0};
    std::int64_t syn_sends{0};
    std::int64_t established_ns{-1};
    std::int64_t rtt_ns[2]{0, 0};
    std::int64_t bottleneck_bps{0};
    HalfLive half[2];
  };

  /// The live_ index of `tag`: its slot field, tag >> 8 (the mux's slot
  /// + 1). The mux issues no tag below 256 (0 marks scripted packets), so
  /// such a tag indexes by its own value and small hand-assigned tags stay
  /// apart.
  [[nodiscard]] static std::size_t index_of(std::uint32_t tag) {
    return tag >> 8 != 0 ? tag >> 8 : tag;
  }
  /// The live connection born with `tag`, or null.
  [[nodiscard]] ConnLive* find(std::uint32_t tag);

  FlowLedgerRecord& open_transfer(ConnLive& conn, std::uint32_t tag, int dir,
                                  std::int64_t t_ns);
  void close_transfer(ConnLive& conn, int dir, std::int64_t completed_ns);
  void push_to_ring(const FlowLedgerRecord& record);
  /// Folds a drop/retransmit/recovery/RTO/ECN event into `rec`, the open
  /// transfer of `h`.
  void record_on_transfer(const TransportEvent& e, HalfLive& h, FlowLedgerRecord& rec);

  core::Arena arena_;
  core::Pool<FlowLedgerRecord> pool_{arena_};
  std::size_t capacity_;
  /// Reserved for `capacity_` records, grows to it, then overwrites the
  /// oldest (at next_) in place; take() moves it out.
  std::vector<FlowLedgerRecord> ring_;
  std::size_t next_{0};
  std::int64_t total_{0};
  bool taken_{false};
  std::uint64_t source_id_;
  std::uint64_t switch_id_;
  std::int64_t switch_drop_fault_epoch_;
  /// Live connections by index_of(tag), each checked against its full tag:
  /// the mux holds one live tag per slot and releases a slot before reusing
  /// it, so a birth simply replaces what its entry held.
  std::vector<ConnLive> live_;
  std::int64_t next_record_id_{0};
  std::int64_t next_drop_id_{0};
  std::int64_t next_conn_serial_{0};
  std::int64_t open_transfers_{0};
  std::int64_t stray_events_{0};
  std::int64_t dropped_after_take_{0};
};

/// Canonical JSONL: one JSON object per record, dumps ordered by source id
/// (stable for ties), records kept in ring (completion) order. Keys are
/// fixed-order, values are integers and fixed strings — bit-identical for
/// equal inputs. Schema (DESIGN.md §14):
///   {"source":N,"id":N,"tag":N,"dir":"out|in","role":S,"peer_role":S,
///    "locality":S,"tuple":S,"born_ns":N,"syn_sends":N,"established_ns":N,
///    "start_ns":N,"completed_ns":N,"bytes":N,"rtx_bytes":N,"rtt_ns":N,
///    "bottleneck_bps":N,"ideal_ns":N,"drops_total":N,"rtx_total":N,
///    "rto_count":N,"ecn_reductions":N,
///    "drops":[{"id":N,"t_ns":N,"seq":N,"len":N,"cause":S,"switch":N,
///              "port":N,"fault_epoch":N,"claimed":0|1}],
///    "rtx":[{"t_ns":N,"seq":N,"len":N,"kind":"dupack|rto","cause_id":N}],
///    "episodes":[{"kind":S,"start_ns":N,"end_ns":N,"detail":N}]}
[[nodiscard]] std::string flows_to_jsonl(std::vector<FlowLedgerDump> dumps);

}  // namespace fbdcsim::telemetry
