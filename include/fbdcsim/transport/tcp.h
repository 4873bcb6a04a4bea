// Per-connection state of the flow-level TCP model, plus the pure
// congestion-control transition laws (free functions so the property suite
// can exercise them without a simulator).
//
// A TcpConnection models BOTH directions of one connection as seen from
// the monitored rack: `out` is the byte stream self -> peer (the modelled
// host is the sender), `in` is peer -> self (the mux runs the remote
// sender locally and its segments enter the rack through the monitored
// host's RSW downlink — the fan-in point where shared-buffer congestion
// actually happens). Each direction is a HalfStream: Reno/NewReno sender
// state on one end and the cumulative-ACK receiver it talks to on the
// other.
#pragma once

#include <cstdint>

#include "fbdcsim/core/ids.h"
#include "fbdcsim/core/packet.h"
#include "fbdcsim/core/time.h"
#include "fbdcsim/transport/params.h"

namespace fbdcsim::transport {

enum class ConnState : std::uint8_t {
  kClosed,       // created, handshake not begun
  kSynSent,      // self sent SYN (outbound open)
  kSynReceived,  // peer's SYN arrived, self sent SYN-ACK (inbound open)
  kEstablished,
  kFinWait,      // FIN sent, waiting for peer's FIN-ACK
  kDone,         // teardown complete; slot ready for recycling
};

/// One direction's sender + receiver state. Byte indices are absolute
/// stream offsets (no ISN arithmetic; handshake packets carry no payload).
struct HalfStream {
  // -- sender --
  std::int64_t demand{0};         // total bytes the application has queued
  std::int64_t snd_una{0};        // lowest unacknowledged byte
  std::int64_t snd_nxt{0};        // next byte to transmit
  std::int64_t max_sent{0};       // high-water mark (emissions below it are
                                  // retransmissions)
  std::int64_t cwnd{0};
  std::int64_t ssthresh{0};
  std::int64_t recover{0};        // NewReno recovery point
  std::int64_t rtx_next{-1};      // next hole to retransmit, -1 if none
  int dupacks{0};
  bool in_recovery{false};
  int backoff{0};                 // RTO exponential-backoff exponent
  bool rto_scheduled{false};      // one timer event outstanding at most
  core::TimePoint rto_deadline;
  core::TimePoint tx_clock;       // NIC/app-pacing serialization clock
  core::Duration pace_gap;        // application write pacing (0 = NIC rate)

  // -- DCTCP sender state (cc == kDctcp only; inert otherwise) --
  std::int64_t alpha_q16{0};            // EWMA mark fraction, Q16 fixed point
  std::int64_t ce_window_end{0};        // snd_nxt snapshot closing the current
                                        // observation window (~1 RTT of data)
  std::int64_t window_acked_bytes{0};   // bytes acked in the current window
  std::int64_t window_marked_bytes{0};  // subset acked with ECE set
  bool cwnd_reduced_this_window{false}; // at most one reduction per window

  // -- SACK sender scoreboard (recovery == kSack only; inert otherwise).
  // Sorted, disjoint, non-adjacent ranges of bytes the peer reported
  // received above snd_una. Bounded: a block that cannot merge into a full
  // list is dropped (never an existing range — the sacked set only shrinks
  // when snd_una advances past it). --
  static constexpr int kMaxSackRanges = 16;
  std::int64_t sack_lo[kMaxSackRanges] = {};
  std::int64_t sack_hi[kMaxSackRanges] = {};
  int sack_count{0};
  std::int64_t high_rtx{0};   // this episode's holes below this were resent
  bool rescue_done{false};    // at most one rescue retransmit per episode

  // -- receiver (the opposite endpoint of this direction) --
  std::int64_t rcv_nxt{0};
  bool ce_pending{false};  // CE seen since the last ACK; echo ECE next ACK
  static constexpr int kMaxOooRanges = 8;
  std::int64_t ooo_lo[kMaxOooRanges] = {};
  std::int64_t ooo_hi[kMaxOooRanges] = {};
  int ooo_count{0};
  int segs_since_ack{0};

  // -- accounting (bytes-conservation property tests) --
  std::int64_t retransmitted_bytes{0};
  std::int64_t switch_dropped_segments{0};

  [[nodiscard]] std::int64_t inflight() const { return snd_nxt - snd_una; }
};

struct TcpConnection {
  core::FiveTuple tuple;  // self -> peer orientation
  core::HostId self;
  core::HostId peer;
  std::uint32_t tag{0};   // (pool slot << 8) | generation
  std::uint64_t tuple_hash{0};
  ConnState state{ConnState::kClosed};
  bool close_pending{false};
  int hs_tries{0};
  bool hs_timer_scheduled{false};
  core::TimePoint hs_deadline;
  /// One-way delay beyond the RSW to the peer (zero for rack-local peers).
  core::Duration beyond;
  /// RSW egress -> peer -> response back at RSW ingress.
  core::Duration reply_delay;
  /// Per-transmission-attempt salt for the fault plan's path-loss draws.
  std::uint64_t loss_serial{0};
  HalfStream out;  // self -> peer bytes
  HalfStream in;   // peer -> self bytes
};

// ---- pure congestion-control laws (Reno/NewReno) ----

/// cwnd after a full ACK of `acked_bytes` new bytes outside recovery:
/// slow start below ssthresh (+acked per ACK), additive increase above
/// (+mss*mss/cwnd per ACK), capped at max_cwnd. Monotone non-decreasing.
[[nodiscard]] std::int64_t cwnd_after_ack(std::int64_t cwnd, std::int64_t ssthresh,
                                          std::int64_t acked_bytes, std::int64_t mss,
                                          std::int64_t max_cwnd);

/// Multiplicative decrease on entering fast recovery: returns the new
/// ssthresh = max(inflight/2, 2*mss).
[[nodiscard]] std::int64_t ssthresh_on_loss(std::int64_t inflight, std::int64_t mss);

/// Applies a 3-dupack fast retransmit: sets ssthresh, inflates cwnd by
/// kDupackThreshold segments, records the recovery point, and marks the
/// first hole for retransmission.
void enter_fast_recovery(HalfStream& h);

/// Applies a retransmission timeout: cwnd collapses to one segment,
/// ssthresh halves, transmission restarts from snd_una (go-back-N), and
/// the backoff exponent grows (capped).
void apply_rto(HalfStream& h);

// ---- pure congestion-control laws (DCTCP, RFC 8257) ----
//
// All DCTCP arithmetic is integer fixed point (Q16: kDctcpAlphaUnit means
// alpha = 1.0) so runs are bit-identical across platforms and thread
// counts — the same determinism contract every other sim-path law
// obeys.

/// Q16 fixed-point unit for the DCTCP mark-fraction EWMA.
inline constexpr std::int64_t kDctcpAlphaUnit = 1 << 16;

/// One observation-window step of the alpha EWMA:
///   alpha' = alpha * (1 - 2^-g) + F * 2^-g,   F = marked/acked (Q16)
/// with g = gain_shift. Inputs are clamped (F to [0, 1], alpha' to
/// [0, kDctcpAlphaUnit]); acked_bytes <= 0 leaves alpha unchanged. The
/// decay term is floored at one Q16 unit so alpha converges to exactly 0
/// under sustained zero marking (mirroring Linux's min_not_zero decay).
[[nodiscard]] std::int64_t dctcp_alpha_update(std::int64_t alpha_q16,
                                              std::int64_t marked_bytes,
                                              std::int64_t acked_bytes, int gain_shift);

/// The once-per-window ECE reaction: cwnd' = cwnd * (1 - alpha/2), never
/// below one MSS. alpha = 1 halves the window (Reno-equivalent); alpha -> 0
/// leaves it nearly untouched.
[[nodiscard]] std::int64_t dctcp_cwnd_after_mark(std::int64_t cwnd, std::int64_t alpha_q16,
                                                 std::int64_t mss);

/// Receiver-side delivery of [seq, seq+len). Advances rcv_nxt, merging any
/// out-of-order ranges it bridges; out-of-window data is remembered in the
/// bounded range set (overflow is dropped — the sender simply retransmits
/// more). Returns true when the receiver must ACK immediately (gap, dup,
/// merge, or PSH) as opposed to the every-2nd-segment delayed-ACK policy.
bool receiver_deliver(HalfStream& h, std::int64_t seq, std::int64_t len, bool psh);

// ---- pure SACK laws (RFC 2018 receiver, RFC 6675 sender scoreboard) ----
//
// All state lives in the same HalfStream the Reno laws use, so the property
// suite exercises every law without a simulator, and runs stay bit-identical
// across thread counts (integer arithmetic only).

/// One SACK block [lo, hi), byte-stream offsets. lo == hi means "no block".
struct SackBlock {
  std::int64_t lo{0};
  std::int64_t hi{0};
};

/// The block a delayed-ACK receiver attaches to the ACK it sends after
/// delivery of [seq, seq+len) (RFC 2018 first-block rule): the maximal
/// contiguous received range containing that segment when it landed out of
/// order — merging the bounded out-of-order set — otherwise the lowest
/// merged range still above rcv_nxt. {0, 0} when nothing is buffered.
[[nodiscard]] SackBlock receiver_sack_block(const HalfStream& h, std::int64_t seq,
                                            std::int64_t end);

/// Records one reported block on the sender scoreboard: clamps it to
/// [snd_una, max_sent), merges overlapping/adjacent ranges, keeps the list
/// sorted and disjoint. When the bounded list is full and the block cannot
/// merge, the NEW block is dropped (sacked ranges never silently un-sack).
/// Returns the number of newly-sacked bytes (0 for stale/duplicate blocks).
std::int64_t sack_record(HalfStream& h, std::int64_t lo, std::int64_t hi);

/// Crops the scoreboard at snd_una — cumulative-ACK advance is the only
/// transition that removes sacked bytes.
void sack_advance(HalfStream& h);

/// Bytes currently marked sacked (above snd_una).
[[nodiscard]] std::int64_t sack_sacked_bytes(const HalfStream& h);

/// Forward-most sacked byte (FACK); snd_una with an empty scoreboard.
[[nodiscard]] std::int64_t sack_fack(const HalfStream& h);

/// Bytes assumed lost: the unsacked bytes of [snd_una, fack).
[[nodiscard]] std::int64_t sack_lost_bytes(const HalfStream& h);

/// Estimate of retransmissions still in the network: the unsacked bytes of
/// [snd_una, min(high_rtx, fack)).
[[nodiscard]] std::int64_t sack_rtx_out_bytes(const HalfStream& h);

/// RFC-6675-style pipe: inflight − sacked − lost + rtx_out. The property
/// suite pins the identity and 0 <= pipe <= inflight on reachable states.
[[nodiscard]] std::int64_t sack_pipe(const HalfStream& h);

/// Whether a duplicate ACK should trigger SACK loss recovery. Beyond the
/// classic dupack count, the scoreboard enables two earlier detections a
/// blind counter cannot: RFC 6675 IsLost — at least kDupackThreshold
/// segments sacked above snd_una prove the hole is a loss, not
/// reordering — and RFC 5827 early retransmit — windows of fewer than 4
/// segments can never produce 3 dupacks, so the threshold shrinks to
/// (outstanding − 1) when something is sacked. Both turn would-be RTO
/// stalls into dupack-driven repair.
[[nodiscard]] bool sack_should_enter_recovery(const HalfStream& h);

/// Enters SACK loss recovery: ssthresh = cwnd = max(inflight/2, 2*mss),
/// recovery point at snd_nxt, per-episode retransmission state reset. No
/// NewReno window inflation and no rtx_next — sack_pipe gates transmission.
void enter_sack_recovery(HalfStream& h);

/// What the SACK recovery pump should transmit next (RFC 6675 NextSeg):
/// rule 1 — the lowest unsacked hole at/above high_rtx below fack; rule 2 —
/// new data; rule 4 — once per episode, a rescue retransmit of the last
/// unsacked chunk below the recovery point (tail loss inside an episode
/// otherwise waits for the RTO). seq < 0 means nothing sendable.
struct SackNextSeg {
  std::int64_t seq{-1};
  std::int64_t len{0};
  bool is_rtx{false};
  bool rescue{false};
};
[[nodiscard]] SackNextSeg sack_next_seg(const HalfStream& h, std::int64_t mss);

/// The kSack retransmission timeout: clears the scoreboard and per-episode
/// state, then falls back to plain go-back-N (apply_rto).
void apply_rto_sack(HalfStream& h);

}  // namespace fbdcsim::transport
