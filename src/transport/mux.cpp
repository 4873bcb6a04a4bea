#include "fbdcsim/transport/mux.h"

#include <algorithm>
#include <functional>

#include "fbdcsim/core/rng.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/topology/path_delay.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/telemetry/timeseries.h"
#include "fbdcsim/telemetry/tracepoint.h"

namespace fbdcsim::transport {

namespace {
using core::DataSize;
using core::Duration;
using core::TimePoint;
using Ev = telemetry::TransportEventKind;
}  // namespace

TransportMux::TransportMux(sim::Simulator& sim, const topology::Fleet& fleet,
                           services::TrafficSink& sink, TcpParams params,
                           const faults::FaultPlan* faults)
    : sim_{&sim}, fleet_{&fleet}, sink_{&sink}, params_{params}, faults_{faults} {
  faults_enabled_ = faults_ != nullptr && faults_->enabled();
}

TransportMux::~TransportMux() = default;

std::int64_t TransportMux::live_connections() const { return pool_.live(); }

void TransportMux::register_probes(telemetry::TimeSeriesProbe& probe) const {
  // Every gauge here fires on every 100th probe tick: it keeps a Web rack's
  // ~10^4-connection sums off the 10 us hot cadence (1 ms effective)
  // without touching the O(1) switch/queue gauges.
  constexpr std::int64_t kStride = 100;
  probe.add_gauge(
      "transport.active_connections", [this] { return pool_.live(); }, kStride);
  const auto sum_out = [this](auto field) {
    std::int64_t total = 0;
    for (const Slot& s : slots_) {
      if (s.live) total += field(s.conn->out);
    }
    return total;
  };
  probe.add_gauge(
      "transport.cwnd_bytes",
      [sum_out] { return sum_out([](const HalfStream& h) { return h.cwnd; }); }, kStride);
  probe.add_gauge(
      "transport.ssthresh_bytes",
      [sum_out] { return sum_out([](const HalfStream& h) { return h.ssthresh; }); },
      kStride);
  probe.add_gauge(
      "transport.inflight_bytes",
      [sum_out] { return sum_out([](const HalfStream& h) { return h.inflight(); }); },
      kStride);
  // DCTCP mark-fraction EWMA, summed over live out-halves in Q16 units
  // (divide a sample by live connections * kDctcpAlphaUnit for the mean
  // alpha). Identically zero under cc = kNewReno.
  probe.add_gauge(
      "transport.alpha_q16",
      [sum_out] { return sum_out([](const HalfStream& h) { return h.alpha_q16; }); },
      kStride);
  probe.add_gauge("transport.rto_pending", [this] {
    std::int64_t pending = 0;
    for (const Slot& s : slots_) {
      if (!s.live) continue;
      pending += (s.conn->out.rto_scheduled ? 1 : 0) + (s.conn->in.rto_scheduled ? 1 : 0);
    }
    return pending;
  }, kStride);
}

const TcpConnection* TransportMux::find_connection(const core::FiveTuple& tuple) const {
  const auto it = by_tuple_.find(tuple);
  if (it == by_tuple_.end()) return nullptr;
  const std::uint32_t idx = (it->second >> 8) - 1;
  if (idx >= slots_.size() || !slots_[idx].live) return nullptr;
  return slots_[idx].conn;
}

TcpConnection* TransportMux::resolve(std::uint32_t tag) {
  // Tags encode (slot + 1) so no live connection's tag is 0 — tag 0 marks
  // scripted packets, which the mux must ignore.
  if (tag < (1u << 8)) return nullptr;
  const std::uint32_t idx = (tag >> 8) - 1;
  if (idx >= slots_.size()) return nullptr;
  Slot& s = slots_[idx];
  if (!s.live || s.gen != static_cast<std::uint8_t>(tag & 0xFFu)) return nullptr;
  return s.conn;
}

TcpConnection& TransportMux::ensure(const core::FiveTuple& tuple, core::HostId self,
                                    core::HostId peer, ConnState initial) {
  if (const auto it = by_tuple_.find(tuple); it != by_tuple_.end()) {
    if (TcpConnection* c = resolve(it->second)) return *c;
    by_tuple_.erase(it);  // stale mapping from a recycled connection
  }
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{});
  }
  Slot& s = slots_[idx];
  s.conn = pool_.create();
  s.live = true;
  TcpConnection& c = *s.conn;
  c.tuple = tuple;
  c.self = self;
  c.peer = peer;
  c.tag = ((idx + 1) << 8) | s.gen;
  c.tuple_hash = std::hash<core::FiveTuple>{}(tuple);
  c.state = initial;

  if (params_.rtt_mode == RttMode::kTopology) {
    // Fabric-derived delay: hop count along the 4-post path times the
    // per-hop latency (plus the inter-site backbone once where it applies).
    c.beyond = topology::one_way_beyond_rsw(*fleet_, self, peer, kPerHopOneWay,
                                            kInterSiteOneWay);
  } else {
    switch (fleet_->locality(self, peer)) {
      case core::Locality::kIntraRack:
        c.beyond = Duration::nanos(0);
        break;
      case core::Locality::kIntraCluster:
        c.beyond = kClusterOneWay;
        break;
      case core::Locality::kIntraDatacenter:
        c.beyond = kDatacenterOneWay;
        break;
      case core::Locality::kInterDatacenter:
        c.beyond = kInterdcOneWay;
        break;
    }
  }
  c.reply_delay = 2 * c.beyond + kHostDelay;

  const std::int64_t iw =
      static_cast<std::int64_t>(params_.initial_window_segments) * kMssBytes;
  for (HalfStream* h : {&c.out, &c.in}) {
    h->cwnd = iw;
    h->ssthresh = params_.max_cwnd.count_bytes();
    h->alpha_q16 =
        params_.cc == CongestionControl::kDctcp ? kDctcpInitialAlpha : 0;
  }

  by_tuple_.emplace(tuple, c.tag);
  ++stats_.connections_created;
  if (ledger_ != nullptr) {
    // Per-direction feedback-loop RTTs match the substitution model: the
    // out half's ACKs return after reply_delay, the in half's after one
    // beyond-RSW leg plus the host turnaround. The NIC is the bottleneck
    // (default port rate equals it), in bytes per second for ideal-FCT math.
    ledger_->on_birth(c.tag, sim_->now().count_nanos(), tuple, fleet_->host(self).role,
                      fleet_->host(peer).role, fleet_->locality(self, peer),
                      c.reply_delay.count_nanos(),
                      (c.beyond + kHostDelay).count_nanos(),
                      kNicRate.count_bits_per_sec() / 8);
  }
  return c;
}

void TransportMux::release(TcpConnection& c) {
  emit(Ev::kRelease, c);
  const std::uint32_t idx = (c.tag >> 8) - 1;
  by_tuple_.erase(c.tuple);
  Slot& s = slots_[idx];
  pool_.destroy(s.conn);
  s.conn = nullptr;
  s.live = false;
  s.gen = static_cast<std::uint8_t>(s.gen + 1);
  free_slots_.push_back(idx);
  ++stats_.connections_destroyed;
}

Duration TransportMux::rto_for(const TcpConnection& c, const HalfStream& h) const {
  // Static RTO estimate: 4x the fixed path RTT (propagation + endpoint
  // turnaround + serialization slop), floored at kMinRto, doubled per
  // backoff step. No SRTT tracking — queueing in this fabric is bounded
  // well below kMinRto, so the floor dominates except inter-DC.
  const Duration path_rtt = 2 * (c.beyond + kHostDelay) + Duration::micros(100);
  const std::int64_t base =
      std::max(kMinRto.count_nanos(), 4 * path_rtt.count_nanos());
  return Duration::nanos(base << std::min(h.backoff, kMaxBackoff));
}

bool TransportMux::path_lost(TcpConnection& c) {
  if (!faults_enabled_) return false;
  const std::uint64_t key =
      core::splitmix64(c.tuple_hash ^ core::splitmix64(++c.loss_serial));
  if (!faults_->path_loss(key)) return false;
  ++stats_.path_loss_drops;
  return true;
}

void TransportMux::emit_now(TcpConnection& c, Dir dir, std::int64_t payload,
                            core::TcpFlags flags, std::int64_t seq, std::int64_t ackno,
                            std::int64_t sack_lo, std::int64_t sack_hi) {
  core::SimPacket pkt;
  pkt.header.timestamp = sim_->now();
  pkt.header.tuple = dir == Dir::kOut ? c.tuple : c.tuple.reversed();
  pkt.header.payload_bytes = payload;
  // A SACK block rides as a TCP option, so the carrying ACK's frame grows.
  // Only kSack receivers with buffered out-of-order data ever attach one.
  pkt.header.frame_bytes = core::wire::tcp_frame_bytes(payload) +
                           (sack_hi > sack_lo ? core::wire::kTcpSackOptionBytes : 0);
  pkt.header.flags = flags;
  pkt.src = dir == Dir::kOut ? c.self : c.peer;
  pkt.dst = dir == Dir::kOut ? c.peer : c.self;
  pkt.flow_tag = c.tag;
  pkt.seq = static_cast<std::uint64_t>(seq);
  pkt.ack = static_cast<std::uint64_t>(ackno);
  pkt.sack_lo = sack_lo;
  pkt.sack_hi = sack_hi;
  // DCTCP data segments are ECN-capable so switches may mark instead of
  // drop; ACKs and control packets stay non-ECT (RFC 8257). NewReno leaves
  // everything non-ECT — a configured switch threshold then never fires.
  if (params_.cc == CongestionControl::kDctcp && payload > 0) pkt.ecn = core::Ecn::kEct;
  if (dir == Dir::kOut) {
    sink_->host_send(pkt);
  } else {
    sink_->host_receive(pkt);
  }
}

void TransportMux::emit(telemetry::TransportEventKind kind, const TcpConnection& c, Dir dir,
                        std::int64_t seq, std::int64_t len, std::int64_t a, std::int64_t b) {
  if (recorder_ == nullptr && ledger_ == nullptr) return;
  const telemetry::TransportEvent e{kind, static_cast<std::uint8_t>(dir), c.tag,
                                    sim_->now().count_nanos(), seq, len, a, b};
  if (recorder_ != nullptr) recorder_->record(e);
  if (ledger_ != nullptr) ledger_->record(e);
}

// ---- DemandSink ----

void TransportMux::open(const core::FiveTuple& tuple, core::HostId self, core::HostId peer,
                        TimePoint start) {
  TcpConnection& c = ensure(tuple, self, peer, ConnState::kClosed);
  const std::uint32_t tag = c.tag;
  sim_->schedule_at(start, [this, tag] { on_ctrl(tag, Ctrl::kBeginOpen); });
}

void TransportMux::open_inbound(const core::FiveTuple& tuple, core::HostId self,
                                core::HostId peer, TimePoint start) {
  TcpConnection& c = ensure(tuple, self, peer, ConnState::kClosed);
  const std::uint32_t tag = c.tag;
  sim_->schedule_at(start, [this, tag] { on_ctrl(tag, Ctrl::kBeginInbound); });
}

void TransportMux::app_send(const core::FiveTuple& tuple, core::HostId self,
                            core::HostId peer, std::int64_t bytes, TimePoint start,
                            Duration pace_gap) {
  if (bytes <= 0) return;
  // Connections first seen carrying data are pooled: their handshake
  // predates the run, so they start established (no SYN on the wire).
  TcpConnection& c = ensure(tuple, self, peer, ConnState::kEstablished);
  const std::uint32_t tag = c.tag;
  const std::int64_t gap_ns = pace_gap.count_nanos();
  sim_->schedule_at(start, [this, tag, bytes, gap_ns] {
    on_demand(tag, Dir::kOut, bytes, Duration::nanos(gap_ns));
  });
}

void TransportMux::app_receive(const core::FiveTuple& tuple, core::HostId self,
                               core::HostId peer, std::int64_t bytes, TimePoint start,
                               Duration pace_gap) {
  if (bytes <= 0) return;
  TcpConnection& c = ensure(tuple, self, peer, ConnState::kEstablished);
  const std::uint32_t tag = c.tag;
  const std::int64_t gap_ns = pace_gap.count_nanos();
  sim_->schedule_at(start, [this, tag, bytes, gap_ns] {
    on_demand(tag, Dir::kIn, bytes, Duration::nanos(gap_ns));
  });
}

void TransportMux::app_close(const core::FiveTuple& tuple, core::HostId self,
                             core::HostId peer, TimePoint start) {
  TcpConnection& c = ensure(tuple, self, peer, ConnState::kEstablished);
  const std::uint32_t tag = c.tag;
  sim_->schedule_at(start, [this, tag] { on_ctrl(tag, Ctrl::kClose); });
}

// ---- connection machinery ----

void TransportMux::establish(TcpConnection& c) {
  c.state = ConnState::kEstablished;
  c.hs_tries = 0;
  emit(Ev::kEstablished, c);
  ++stats_.handshakes_completed;
  pump(c, Dir::kOut);
  pump(c, Dir::kIn);
  if (c.close_pending) try_close(c);
}

void TransportMux::on_ctrl(std::uint32_t tag, Ctrl ctrl) {
  TcpConnection* cp = resolve(tag);
  if (cp == nullptr) return;
  TcpConnection& c = *cp;
  switch (ctrl) {
    case Ctrl::kBeginOpen:
      if (c.state == ConnState::kClosed) {
        c.state = ConnState::kSynSent;
        emit(Ev::kSyn, c);
        emit_now(c, Dir::kOut, 0, core::TcpFlags{.syn = true}, 0, 0);
        arm_hs(c);
      }
      break;
    case Ctrl::kBeginInbound:
      if (c.state == ConnState::kClosed) {
        c.state = ConnState::kSynReceived;
        emit(Ev::kSyn, c);
        emit_now(c, Dir::kIn, 0, core::TcpFlags{.syn = true}, 0, 0);
        arm_hs(c);
      }
      break;
    case Ctrl::kSynAckIn:
      emit_now(c, Dir::kIn, 0, core::TcpFlags{.syn = true, .ack = true}, 0, 0);
      break;
    case Ctrl::kHsAckIn:
      emit_now(c, Dir::kIn, 0, core::TcpFlags{.ack = true}, 0, 0);
      break;
    case Ctrl::kFinAckIn:
      emit_now(c, Dir::kIn, 0, core::TcpFlags{.ack = true, .fin = true}, 0,
               c.out.rcv_nxt);
      break;
    case Ctrl::kClose:
      c.close_pending = true;
      try_close(c);
      break;
  }
}

void TransportMux::on_demand(std::uint32_t tag, Dir dir, std::int64_t bytes,
                             Duration pace_gap) {
  TcpConnection* cp = resolve(tag);
  if (cp == nullptr) return;
  HalfStream& h = half(*cp, dir);
  h.demand += bytes;
  h.pace_gap = std::max(pace_gap, Duration::nanos(0));
  stats_.bytes_demanded += bytes;
  emit(Ev::kDemand, *cp, dir, 0, bytes);
  pump(*cp, dir);
}

void TransportMux::pump(TcpConnection& c, Dir dir) {
  if (c.state != ConnState::kEstablished && c.state != ConnState::kFinWait) return;
  HalfStream& h = half(c, dir);
  if (params_.recovery == LossRecovery::kSack && h.in_recovery) {
    pump_sack_recovery(c, dir);
    return;
  }
  const std::int64_t mss = kMssBytes;
  while (true) {
    if (h.rtx_next >= 0) {
      const std::int64_t seq = h.rtx_next;
      const std::int64_t len = std::min(mss, h.demand - seq);
      h.rtx_next = -1;
      if (len > 0) {
        send_segment(c, dir, seq, len);
        arm_rto(c, dir);
        continue;
      }
    }
    if (h.inflight() >= h.cwnd) break;
    const std::int64_t avail = h.demand - h.snd_nxt;
    if (avail <= 0) break;
    const std::int64_t len = std::min(avail, mss);
    send_segment(c, dir, h.snd_nxt, len);
    h.snd_nxt += len;
    if (h.snd_nxt > h.max_sent) h.max_sent = h.snd_nxt;
    arm_rto(c, dir);
  }
}

void TransportMux::send_sack_selected(TcpConnection& c, Dir dir, const SackNextSeg& ns) {
  HalfStream& h = half(c, dir);
  send_segment(c, dir, ns.seq, ns.len);
  if (ns.is_rtx) {
    if (ns.rescue) {
      // Rule-4 rescue: does not move high_rtx (later blocks may expose
      // real holes above it) and fires at most once per episode.
      h.rescue_done = true;
      ++stats_.sack_rescue_retransmits;
    } else {
      h.high_rtx = std::max(h.high_rtx, ns.seq + ns.len);
    }
    ++stats_.sack_retransmits;
  } else {
    h.snd_nxt += ns.len;
    if (h.snd_nxt > h.max_sent) h.max_sent = h.snd_nxt;
  }
  arm_rto(c, dir);
}

void TransportMux::pump_sack_recovery(TcpConnection& c, Dir dir) {
  HalfStream& h = half(c, dir);
  const std::int64_t mss = kMssBytes;
  while (sack_pipe(h) < h.cwnd) {
    const SackNextSeg ns = sack_next_seg(h, mss);
    if (ns.seq < 0 || ns.len <= 0) break;
    send_sack_selected(c, dir, ns);
  }
}

void TransportMux::send_segment(TcpConnection& c, Dir dir, std::int64_t seq,
                                std::int64_t len) {
  HalfStream& h = half(c, dir);
  const TimePoint now = sim_->now();
  if (h.tx_clock < now) h.tx_clock = now;
  const TimePoint at = h.tx_clock;
  const Duration serialization = kNicRate.transmission_time(
      DataSize::bytes(core::wire::tcp_frame_bytes(len)));
  h.tx_clock += std::max(serialization, h.pace_gap);

  ++stats_.segments_sent;
  if (seq < h.max_sent) {
    h.retransmitted_bytes += len;
    stats_.bytes_retransmitted += len;
    ++stats_.retransmit_segments;
    // Repair-kind split: inside fast recovery the resend was dupack-driven;
    // otherwise it belongs to a go-back-N stream after a timeout.
    if (h.in_recovery) {
      ++stats_.rtx_dupack_segments;
    } else {
      ++stats_.rtx_rto_segments;
    }
    emit(Ev::kRetransmit, c, dir, seq, len,
         static_cast<std::int64_t>(h.in_recovery ? telemetry::FlowRtxKind::kDupack
                                                 : telemetry::FlowRtxKind::kRto));
  }

  const std::uint32_t tag = c.tag;
  const auto dir8 = static_cast<std::uint8_t>(dir);
  sim_->schedule_at(at, [this, tag, dir8, seq, len] {
    TcpConnection* cp = resolve(tag);
    if (cp == nullptr) return;
    const Dir d = static_cast<Dir>(dir8);
    // Remote (in-half) senders sit beyond the RSW: forward-path loss means
    // the segment never reaches the rack at all.
    if (d == Dir::kIn && path_lost(*cp)) {
      emit(Ev::kDrop, *cp, d, seq, len,
           static_cast<std::int64_t>(telemetry::FlowDropCause::kPathLoss), -1);
      return;
    }
    const bool psh = seq + len >= half(*cp, d).demand;
    emit_now(*cp, d, len, core::TcpFlags{.ack = true, .psh = psh}, seq, 0);
  });
}

void TransportMux::on_ack_at_sender(TcpConnection& c, Dir dir, std::int64_t ackno,
                                    bool ece, std::int64_t sack_lo,
                                    std::int64_t sack_hi) {
  HalfStream& h = half(c, dir);
  const std::int64_t mss = kMssBytes;
  const bool dctcp = params_.cc == CongestionControl::kDctcp;
  const bool sack = params_.recovery == LossRecovery::kSack;
  if (sack && sack_hi > sack_lo) {
    const std::int64_t newly = sack_record(h, sack_lo, sack_hi);
    if (newly > 0) {
      ++stats_.sack_blocks_recorded;
      stats_.sack_bytes += newly;
    }
  }
  if (ackno > h.snd_una) {
    const std::int64_t acked = ackno - h.snd_una;
    if (dctcp) {
      // Per-window mark accounting (RFC 8257 §3.3): every acked byte
      // counts; ECE attributes the bytes this ACK covers as marked.
      h.window_acked_bytes += acked;
      if (ece) h.window_marked_bytes += acked;
      if (ece && !h.cwnd_reduced_this_window && !h.in_recovery) {
        // At most one alpha-scaled reduction per window; loss-triggered
        // recovery supersedes it (the window already halved).
        h.cwnd = dctcp_cwnd_after_mark(h.cwnd, h.alpha_q16, mss);
        h.ssthresh = h.cwnd;
        h.cwnd_reduced_this_window = true;
        ++stats_.dctcp_cwnd_reductions;
        emit(Ev::kEcnReduction, c, dir, 0, 0, h.cwnd);
      }
    }
    h.snd_una = ackno;
    if (h.snd_nxt < h.snd_una) h.snd_nxt = h.snd_una;  // go-back-N rewind passed by ack
    if (sack) sack_advance(h);
    h.backoff = 0;
    h.rto_deadline = sim_->now() + rto_for(c, h);
    if (h.in_recovery) {
      if (ackno >= h.recover) {
        // Recovery complete: deflate to ssthresh.
        h.in_recovery = false;
        h.dupacks = 0;
        h.cwnd = std::max(mss, std::min(h.ssthresh, params_.max_cwnd.count_bytes()));
        emit(Ev::kRecoveryExit, c, dir, 0, 0, h.cwnd);
      } else if (!sack) {
        // NewReno partial ACK: retransmit the next hole, stay in recovery.
        h.rtx_next = ackno;
      }
      // kSack partial ACK: nothing to mark — the scoreboard already knows
      // every hole and the recovery pump below retransmits per sack_pipe.
    } else {
      h.dupacks = 0;
      // A DCTCP window that just reduced holds cwnd for the rest of the
      // window (CWR-style); growth resumes next window. With zero marks
      // this branch is bitwise NewReno.
      if (!(dctcp && h.cwnd_reduced_this_window)) {
        h.cwnd =
            cwnd_after_ack(h.cwnd, h.ssthresh, acked, mss, params_.max_cwnd.count_bytes());
      }
    }
    if (dctcp && ackno >= h.ce_window_end) {
      // Observation window closed (~one RTT of data acked): fold the mark
      // fraction into alpha and open the next window at snd_nxt.
      h.alpha_q16 = dctcp_alpha_update(h.alpha_q16, h.window_marked_bytes,
                                       h.window_acked_bytes, kDctcpGainShift);
      h.window_acked_bytes = 0;
      h.window_marked_bytes = 0;
      h.ce_window_end = h.snd_nxt;
      h.cwnd_reduced_this_window = false;
    }
    // After the recovery bookkeeping above, so an episode exit on this ACK
    // lands before the transfer it belongs to closes.
    emit(Ev::kAcked, c, dir, h.snd_una, 0, h.demand);
    FBDCSIM_T_HISTOGRAM(cwnd_hist, "transport.cwnd", Sim);
    FBDCSIM_T_OBSERVE(cwnd_hist, h.cwnd / mss);
  } else if (ackno == h.snd_una && h.inflight() > 0) {
    ++h.dupacks;
    if (h.in_recovery) {
      // kSack holds cwnd at ssthresh and lets sack_pipe absorb the dupack
      // (the block recorded above already shrank it); NewReno inflates.
      if (!sack) h.cwnd += mss;
    } else if (sack ? sack_should_enter_recovery(h)
                    : h.dupacks >= kDupackThreshold) {
      if (sack) {
        enter_sack_recovery(h);
      } else {
        enter_fast_recovery(h);
      }
      ++stats_.fast_retransmits;
      emit(sack ? Ev::kSackRecovery : Ev::kFastRecovery, c, dir, 0, 0, h.ssthresh,
           h.inflight());
      if (sack) {
        // The fast retransmit itself is unconditional — sack_pipe gates
        // only the rest of the episode (mirrors NewReno's rtx_next mark).
        const SackNextSeg ns = sack_next_seg(h, mss);
        if (ns.seq >= 0 && ns.len > 0 && ns.is_rtx) send_sack_selected(c, dir, ns);
      }
    }
  }
  pump(c, dir);
  if (c.close_pending) try_close(c);
}

void TransportMux::on_data_at_receiver(TcpConnection& c, Dir dir, std::int64_t seq,
                                       std::int64_t len, bool psh, bool ce) {
  HalfStream& h = half(c, dir);
  const std::int64_t before = h.rcv_nxt;
  bool ack_now = receiver_deliver(h, seq, len, psh);
  stats_.bytes_delivered += h.rcv_nxt - before;
  if (ce) {
    // CE-marked segment: remember it for the next ACK's ECE bit and ACK
    // immediately (approximating RFC 8257's ACK-on-CE-state-change rule —
    // it keeps the sender's mark-fraction estimate per-segment tight
    // instead of smeared across delayed-ACK pairs).
    h.ce_pending = true;
    h.segs_since_ack = 0;
    ack_now = true;
    ++stats_.ecn_ce_segments;
  }
  const bool ece = h.ce_pending && ack_now;
  if (ece) {
    h.ce_pending = false;
    ++stats_.ecn_echoed_acks;
  }
  // kSack receivers attach the block covering the freshest out-of-order
  // data (RFC 2018 first-block rule); {0, 0} — no block — whenever the
  // stream is gapless, which keeps loss-free runs bitwise NewReno.
  SackBlock blk;
  if (params_.recovery == LossRecovery::kSack && ack_now) {
    blk = receiver_sack_block(h, seq, seq + len);
  }
  if (dir == Dir::kOut) {
    // The far receiver acknowledges out-half data; its ACK re-enters the
    // rack after the connection's beyond-RSW round trip.
    if (ack_now) {
      const std::uint32_t tag = c.tag;
      const std::int64_t ackno = h.rcv_nxt;
      const std::int64_t blo = blk.lo;
      const std::int64_t bhi = blk.hi;
      sim_->schedule_after(c.reply_delay, [this, tag, ackno, ece, blo, bhi] {
        TcpConnection* cp = resolve(tag);
        if (cp == nullptr) return;
        emit_now(*cp, Dir::kIn, 0, core::TcpFlags{.ack = true, .ece = ece}, 0, ackno,
                 blo, bhi);
      });
    }
  } else {
    // The modelled host acknowledges in-half data with a real packet.
    if (ack_now) {
      emit_now(c, Dir::kOut, 0, core::TcpFlags{.ack = true, .ece = ece}, 0, h.rcv_nxt,
               blk.lo, blk.hi);
    }
    if (c.close_pending) try_close(c);
  }
}

void TransportMux::arm_rto(TcpConnection& c, Dir dir) {
  HalfStream& h = half(c, dir);
  h.rto_deadline = sim_->now() + rto_for(c, h);
  if (h.rto_scheduled) return;
  h.rto_scheduled = true;
  const std::uint32_t tag = c.tag;
  const auto dir8 = static_cast<std::uint8_t>(dir);
  sim_->schedule_at(h.rto_deadline,
                    [this, tag, dir8] { on_rto_event(tag, static_cast<Dir>(dir8)); });
}

void TransportMux::on_rto_event(std::uint32_t tag, Dir dir) {
  TcpConnection* cp = resolve(tag);
  if (cp == nullptr) return;
  TcpConnection& c = *cp;
  HalfStream& h = half(c, dir);
  h.rto_scheduled = false;
  if (c.state != ConnState::kEstablished && c.state != ConnState::kFinWait) return;
  if (h.snd_una >= h.snd_nxt && h.rtx_next < 0) return;  // everything acked
  if (sim_->now() < h.rto_deadline) {
    // ACKs pushed the deadline forward since this event was scheduled.
    h.rto_scheduled = true;
    const auto dir8 = static_cast<std::uint8_t>(dir);
    sim_->schedule_at(h.rto_deadline,
                      [this, tag, dir8] { on_rto_event(tag, static_cast<Dir>(dir8)); });
    return;
  }
  if (params_.recovery == LossRecovery::kSack) {
    apply_rto_sack(h);  // scoreboard forgotten: go-back-N fallback
  } else {
    apply_rto(h);
  }
  ++stats_.rto_fired;
  emit(Ev::kRto, c, dir, h.snd_una, 0, h.cwnd, h.backoff);
  arm_rto(c, dir);
  pump(c, dir);
}

void TransportMux::try_close(TcpConnection& c) {
  if (!c.close_pending || c.state != ConnState::kEstablished) return;
  if (c.out.snd_nxt < c.out.demand || c.out.snd_una < c.out.snd_nxt) return;
  if (c.in.rcv_nxt < c.in.demand) return;
  c.state = ConnState::kFinWait;
  c.hs_tries = 0;
  emit_now(c, Dir::kOut, 0, core::TcpFlags{.ack = true, .fin = true}, 0, c.in.rcv_nxt);
  arm_hs(c);
}

void TransportMux::arm_hs(TcpConnection& c) {
  const Duration base = rto_for(c, c.out);
  c.hs_deadline =
      sim_->now() + Duration::nanos(base.count_nanos()
                                    << std::min(c.hs_tries, kMaxBackoff));
  if (c.hs_timer_scheduled) return;
  c.hs_timer_scheduled = true;
  const std::uint32_t tag = c.tag;
  sim_->schedule_at(c.hs_deadline, [this, tag] { on_hs_event(tag); });
}

void TransportMux::on_hs_event(std::uint32_t tag) {
  TcpConnection* cp = resolve(tag);
  if (cp == nullptr) return;
  TcpConnection& c = *cp;
  c.hs_timer_scheduled = false;
  if (c.state != ConnState::kSynSent && c.state != ConnState::kSynReceived &&
      c.state != ConnState::kFinWait) {
    return;
  }
  if (sim_->now() < c.hs_deadline) {
    c.hs_timer_scheduled = true;
    sim_->schedule_at(c.hs_deadline, [this, tag] { on_hs_event(tag); });
    return;
  }
  if (++c.hs_tries >= kMaxHandshakeTries) {
    ++stats_.handshake_failures;
    release(c);
    return;
  }
  emit(Ev::kHandshakeRetry, c, Dir::kOut, 0, 0, c.hs_tries,
       static_cast<std::int64_t>(c.state));
  switch (c.state) {
    case ConnState::kSynSent:
      emit(Ev::kSyn, c);
      emit_now(c, Dir::kOut, 0, core::TcpFlags{.syn = true}, 0, 0);
      break;
    case ConnState::kSynReceived:
      // Covers both a lost peer SYN and a lost SYN-ACK: replaying the SYN
      // re-triggers our SYN-ACK on delivery.
      emit(Ev::kSyn, c);
      emit_now(c, Dir::kIn, 0, core::TcpFlags{.syn = true}, 0, 0);
      break;
    case ConnState::kFinWait:
      emit_now(c, Dir::kOut, 0, core::TcpFlags{.ack = true, .fin = true}, 0,
               c.in.rcv_nxt);
      break;
    default:
      return;
  }
  arm_hs(c);
}

// ---- switch callbacks ----

void TransportMux::on_delivered(const core::SimPacket& pkt) {
  if (pkt.flow_tag == 0) return;
  TcpConnection* cp = resolve(pkt.flow_tag);
  if (cp == nullptr) return;
  TcpConnection& c = *cp;
  const Dir wire = pkt.src == c.self ? Dir::kOut : Dir::kIn;
  const core::TcpFlags f = pkt.header.flags;
  const std::int64_t payload = pkt.header.payload_bytes;

  if (f.syn && !f.ack) {
    if (wire == Dir::kOut) {
      // Self's SYN cleared the RSW; the peer answers after the path RTT.
      if (c.state == ConnState::kSynSent && !path_lost(c)) {
        const std::uint32_t tag = c.tag;
        sim_->schedule_after(c.reply_delay,
                             [this, tag] { on_ctrl(tag, Ctrl::kSynAckIn); });
      }
    } else {
      // The peer's SYN arrived at self: answer with a SYN-ACK.
      if (c.state == ConnState::kSynReceived) {
        emit_now(c, Dir::kOut, 0, core::TcpFlags{.syn = true, .ack = true}, 0, 0);
      }
    }
    return;
  }
  if (f.syn && f.ack) {
    if (wire == Dir::kIn) {
      // Peer's SYN-ACK reached self: complete the outbound handshake.
      if (c.state == ConnState::kSynSent) {
        emit_now(c, Dir::kOut, 0, core::TcpFlags{.ack = true}, 0, 0);
        establish(c);
      }
    } else {
      // Self's SYN-ACK egressed toward the opener; its final ACK returns.
      if (c.state == ConnState::kSynReceived && !path_lost(c)) {
        const std::uint32_t tag = c.tag;
        sim_->schedule_after(c.reply_delay,
                             [this, tag] { on_ctrl(tag, Ctrl::kHsAckIn); });
      }
    }
    return;
  }
  if (f.fin) {
    if (wire == Dir::kOut) {
      if (c.state == ConnState::kFinWait && !path_lost(c)) {
        const std::uint32_t tag = c.tag;
        sim_->schedule_after(c.reply_delay,
                             [this, tag] { on_ctrl(tag, Ctrl::kFinAckIn); });
      }
    } else {
      // Peer's FIN-ACK arrived: final ACK out, then the slot recycles. Any
      // packets of this connection still in flight carry a stale tag and
      // are ignored on delivery.
      if (c.state == ConnState::kFinWait) {
        emit_now(c, Dir::kOut, 0, core::TcpFlags{.ack = true}, 0, c.in.rcv_nxt);
        release(c);
      }
    }
    return;
  }
  if (payload > 0) {
    const std::int64_t seq = static_cast<std::int64_t>(pkt.seq);
    const bool ce = pkt.ecn == core::Ecn::kCe;
    if (wire == Dir::kOut) {
      // Out-half data at RSW egress: beyond-RSW loss, then the synthetic
      // far receiver.
      if (!path_lost(c)) {
        on_data_at_receiver(c, Dir::kOut, seq, payload, f.psh, ce);
      } else {
        emit(Ev::kDrop, c, Dir::kOut, seq, payload,
             static_cast<std::int64_t>(telemetry::FlowDropCause::kPathLoss), -1);
      }
    } else {
      on_data_at_receiver(c, Dir::kIn, seq, payload, f.psh, ce);
    }
    return;
  }
  // Pure ACK.
  if (wire == Dir::kIn) {
    if (c.state == ConnState::kSynReceived) {
      // The opener's final handshake ACK.
      establish(c);
      return;
    }
    on_ack_at_sender(c, Dir::kOut, static_cast<std::int64_t>(pkt.ack), f.ece,
                     pkt.sack_lo, pkt.sack_hi);
  } else {
    // Self's ACK egressed toward the in-half's remote sender.
    if (c.state == ConnState::kSynSent || path_lost(c)) return;
    const std::uint32_t tag = c.tag;
    const std::int64_t ackno = static_cast<std::int64_t>(pkt.ack);
    const bool ece = f.ece;
    const std::int64_t blo = pkt.sack_lo;
    const std::int64_t bhi = pkt.sack_hi;
    sim_->schedule_after(c.beyond + kHostDelay,
                         [this, tag, ackno, ece, blo, bhi] {
      TcpConnection* cp2 = resolve(tag);
      if (cp2 != nullptr) on_ack_at_sender(*cp2, Dir::kIn, ackno, ece, blo, bhi);
    });
  }
}

void TransportMux::on_dropped(std::size_t port, const core::SimPacket& pkt) {
  if (pkt.flow_tag == 0) return;
  ++stats_.switch_drop_notifications;
  TcpConnection* cp = resolve(pkt.flow_tag);
  if (cp == nullptr || pkt.header.payload_bytes <= 0) return;
  const Dir dir = pkt.src == cp->self ? Dir::kOut : Dir::kIn;
  ++half(*cp, dir).switch_dropped_segments;
  emit(Ev::kDrop, *cp, dir, static_cast<std::int64_t>(pkt.seq), pkt.header.payload_bytes,
       static_cast<std::int64_t>(telemetry::FlowDropCause::kSwitchBuffer),
       static_cast<std::int64_t>(port));
}

}  // namespace fbdcsim::transport
