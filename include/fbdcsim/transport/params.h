// Constants and per-run settings of the flow-level TCP model
// (transport/mux.h). They match a paper-era production host: Linux
// Reno/CUBIC-family defaults (IW10, 200 ms min RTO, 3-dupack fast
// retransmit) on a 10-Gbps NIC. Only the laws a run chooses between (cc,
// recovery, RTT derivation) and the window settings that scenarios vary are
// TcpParams fields; every other value is a named constant.
#pragma once

#include <cstdint>

#include "fbdcsim/core/packet.h"
#include "fbdcsim/core/time.h"
#include "fbdcsim/core/units.h"

namespace fbdcsim::transport {

/// Congestion-control law selection. kNewReno is the default and is
/// byte-identical to every pre-DCTCP release; kDctcp adds ECN-driven
/// window scaling (RFC 8257) on top of the same loss machinery.
enum class CongestionControl : std::uint8_t {
  kNewReno = 0,
  kDctcp = 1,
};

[[nodiscard]] const char* to_string(CongestionControl cc);

/// Loss-recovery law selection. kNewReno is the default and is
/// byte-identical to every pre-SACK release; kSack replaces the
/// one-hole-per-RTT partial-ACK loop with a selective-acknowledgment
/// scoreboard and RFC-6675-style pipe accounting (transport/tcp.h).
enum class LossRecovery : std::uint8_t {
  kNewReno = 0,
  kSack = 1,
};

[[nodiscard]] const char* to_string(LossRecovery recovery);

/// How a connection's fixed beyond-the-RSW propagation delay is derived.
enum class RttMode : std::uint8_t {
  /// One constant per locality class (kClusterOneWay etc.) — the
  /// historical behavior, byte-identical to pre-topology-RTT releases.
  kLocalityClass = 0,
  /// Hop count along the actual 4-post fabric path times kPerHopOneWay,
  /// plus kInterSiteOneWay once when the endpoints sit in different
  /// sites (topology::hops_beyond_rsw).
  kTopology = 1,
};

/// Maximum segment size; 1460 B matches the fleet's 1500-B MTU.
inline constexpr std::int64_t kMssBytes = core::wire::kMaxTcpPayloadBytes;
/// Duplicate ACKs that trigger fast retransmit.
inline constexpr int kDupackThreshold = 3;
/// Floor of the retransmission timer (Linux's 200 ms minimum RTO).
inline constexpr core::Duration kMinRto = core::Duration::millis(200);
/// RTO doubling cap: backoff never exceeds kMinRto << kMaxBackoff.
inline constexpr int kMaxBackoff = 6;
/// Host NIC line rate — bounds per-connection emission pacing.
inline constexpr core::DataRate kNicRate = core::DataRate::gigabits_per_sec(10);
/// Fixed per-endpoint stack+NIC turnaround (receive -> respond).
inline constexpr core::Duration kHostDelay = core::Duration::micros(5);

/// One-way propagation beyond the monitored RSW, by peer locality, under
/// RttMode::kLocalityClass. Intra-rack peers are reached through the RSW
/// itself (zero beyond-RSW delay); the others approximate cluster fabric,
/// DC fabric, and the inter-site backbone of Section 3.1.
inline constexpr core::Duration kClusterOneWay = core::Duration::micros(25);
inline constexpr core::Duration kDatacenterOneWay = core::Duration::micros(75);
inline constexpr core::Duration kInterdcOneWay = core::Duration::micros(17'500);

/// Handshake/FIN retransmission attempts before the connection gives up
/// (SYN retries use the RTO machinery with exponential backoff).
inline constexpr int kMaxHandshakeTries = 5;

/// DCTCP alpha EWMA gain as a shift: alpha <- alpha(1 - 2^-g) + F*2^-g
/// with g = kDctcpGainShift (RFC 8257 recommends g = 4, i.e. 1/16).
inline constexpr int kDctcpGainShift = 4;
/// Initial DCTCP alpha in Q16 fixed point (kDctcpAlphaUnit = 1.0). Starting
/// at 1.0 (Linux behavior) makes the first marked window halve like Reno.
inline constexpr std::int64_t kDctcpInitialAlpha = 1 << 16;

/// Per-hop one-way latency under RttMode::kTopology. 12.5 us per switch
/// hop makes the 2-hop intra-cluster path equal kClusterOneWay.
inline constexpr core::Duration kPerHopOneWay = core::Duration::nanos(12'500);
/// Extra one-way propagation added once under RttMode::kTopology when the
/// endpoints sit in different sites (the inter-site backbone's geographic
/// distance, which no per-hop constant can represent). It makes the 5-hop
/// inter-site path total exactly kInterdcOneWay:
/// 5 * 12.5 us + 17'437.5 us = 17'500 us.
inline constexpr core::Duration kInterSiteOneWay = core::Duration::nanos(17'437'500);

/// The settings a run may vary. Everything else about the TCP model is one
/// of the constants above.
struct TcpParams {
  /// Initial congestion window, in segments (IW10, RFC 6928 — deployed
  /// fleet-wide well before the paper's measurement window).
  int initial_window_segments = 10;
  /// Congestion-window cap (stands in for the socket send buffer).
  core::DataSize max_cwnd = core::DataSize::kilobytes(4096);

  /// Congestion-control law. kNewReno (default) leaves every packet
  /// non-ECT and never consults the DCTCP constants.
  CongestionControl cc = CongestionControl::kNewReno;

  /// Loss-recovery law. kNewReno (default) keeps the classic partial-ACK
  /// hole-by-hole retransmission loop; kSack activates the selective-ACK
  /// scoreboard. Composes freely with `cc` (Reno+SACK, DCTCP+SACK).
  LossRecovery recovery = LossRecovery::kNewReno;

  /// Beyond-the-RSW delay derivation (see RttMode). kLocalityClass uses
  /// the three per-locality constants; kTopology derives the delay from
  /// the fabric path instead.
  RttMode rtt_mode = RttMode::kLocalityClass;
};

}  // namespace fbdcsim::transport
