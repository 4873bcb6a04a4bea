#include "fbdcsim/telemetry/flow_ledger.h"

#include <algorithm>
#include <utility>

#include "fbdcsim/telemetry/json.h"

namespace fbdcsim::telemetry {

const char* to_string(FlowDropCause cause) {
  switch (cause) {
    case FlowDropCause::kSwitchBuffer:
      return "switch_buffer";
    case FlowDropCause::kPathLoss:
      return "path_loss";
    case FlowDropCause::kScripted:
      return "scripted";
  }
  return "unknown";
}

const char* to_string(FlowRtxKind kind) {
  switch (kind) {
    case FlowRtxKind::kDupack:
      return "dupack";
    case FlowRtxKind::kRto:
      return "rto";
  }
  return "unknown";
}

const char* to_string(FlowEpisodeKind kind) {
  switch (kind) {
    case FlowEpisodeKind::kFastRecovery:
      return "fast_recovery";
    case FlowEpisodeKind::kSackRecovery:
      return "sack_recovery";
    case FlowEpisodeKind::kRto:
      return "rto";
    case FlowEpisodeKind::kEcnReduction:
      return "ecn_reduction";
  }
  return "unknown";
}

std::int64_t ideal_fct_ns(std::int64_t bytes, std::int64_t rtt_ns,
                          std::int64_t bottleneck_bytes_per_sec) {
  if (bytes <= 0 || bottleneck_bytes_per_sec <= 0) return rtt_ns;
  const auto serialization = static_cast<std::int64_t>(
      (static_cast<__int128>(bytes) * 1'000'000'000) / bottleneck_bytes_per_sec);
  return rtt_ns + serialization;
}

FlowLedger::FlowLedger(std::uint64_t source_id, std::size_t capacity,
                       std::uint64_t switch_id, std::int64_t switch_drop_fault_epoch)
    : capacity_{capacity == 0 ? 1 : capacity},
      ring_(capacity_),
      source_id_{source_id},
      switch_id_{switch_id},
      switch_drop_fault_epoch_{switch_drop_fault_epoch} {}

void FlowLedger::on_birth(std::uint32_t tag, std::int64_t t_ns,
                          const core::FiveTuple& tuple, core::HostRole role,
                          core::HostRole peer_role, core::Locality locality,
                          std::int64_t rtt_out_ns, std::int64_t rtt_in_ns,
                          std::int64_t bottleneck_bytes_per_sec) {
  const std::size_t idx = index_of(tag);
  if (idx >= live_.size()) live_.resize(idx + 1);
  ConnLive& conn = live_[idx];
  conn = ConnLive{};
  conn.tag = tag;
  conn.serial = ++next_conn_serial_;
  conn.tuple = tuple;
  conn.role = role;
  conn.peer_role = peer_role;
  conn.locality = locality;
  conn.born_ns = t_ns;
  conn.rtt_ns[0] = rtt_out_ns;
  conn.rtt_ns[1] = rtt_in_ns;
  conn.bottleneck_bps = bottleneck_bytes_per_sec;
}

FlowLedger::ConnLive* FlowLedger::find(std::uint32_t tag) {
  const std::size_t idx = index_of(tag);
  if (idx >= live_.size()) return nullptr;
  ConnLive& conn = live_[idx];
  return conn.serial != 0 && conn.tag == tag ? &conn : nullptr;
}

FlowLedgerRecord& FlowLedger::open_transfer(ConnLive& conn, std::uint32_t tag, int dir,
                                            std::int64_t t_ns) {
  FlowLedgerRecord* rec = pool_.create();
  *rec = FlowLedgerRecord{};
  rec->id = ++next_record_id_;
  rec->flow_tag = tag;
  rec->dir = static_cast<std::uint8_t>(dir);
  rec->role = conn.role;
  rec->peer_role = conn.peer_role;
  rec->locality = conn.locality;
  rec->tuple = conn.tuple;
  rec->conn_born_ns = conn.born_ns;
  rec->start_ns = t_ns;
  rec->rtt_ns = conn.rtt_ns[dir];
  rec->bottleneck_bps = conn.bottleneck_bps;
  conn.half[dir].open = rec;
  ++open_transfers_;
  return *rec;
}

void FlowLedger::close_transfer(ConnLive& conn, int dir, std::int64_t completed_ns) {
  HalfLive& h = conn.half[dir];
  FlowLedgerRecord* rec = h.open;
  rec->completed_ns = completed_ns;
  rec->syn_sends = conn.syn_sends;
  rec->established_ns = conn.established_ns;
  rec->ideal_ns = ideal_fct_ns(rec->bytes, rec->rtt_ns, rec->bottleneck_bps);
  push_to_ring(*rec);
  pool_.destroy(rec);
  h.open = nullptr;
  h.rto_cause_id = -1;
  --open_transfers_;
}

void FlowLedger::push_to_ring(const FlowLedgerRecord& record) {
  if (ring_.empty()) {  // handed over by take()
    ++dropped_after_take_;
    return;
  }
  ring_[next_] = record;
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

void FlowLedger::record(const TransportEvent& e) {
  ConnLive* conn = find(e.tag);
  const int dir = e.dir;
  switch (e.kind) {
    case TransportEventKind::kSyn:
      if (conn != nullptr) ++conn->syn_sends;
      return;
    case TransportEventKind::kEstablished:
      if (conn != nullptr && conn->established_ns < 0) conn->established_ns = e.t_ns;
      return;
    case TransportEventKind::kDemand:
      if (conn == nullptr || e.len <= 0) return;
      if (conn->half[dir].open != nullptr) {
        conn->half[dir].open->bytes += e.len;  // pipelined demand extends the transfer
      } else {
        open_transfer(*conn, e.tag, dir, e.t_ns).bytes = e.len;
      }
      return;
    case TransportEventKind::kAcked:
      if (conn != nullptr && conn->half[dir].open != nullptr && e.seq >= e.a) {
        close_transfer(*conn, dir, e.t_ns);
      }
      return;
    case TransportEventKind::kRelease:
      if (conn == nullptr) return;
      for (int d = 0; d < 2; ++d) {
        if (conn->half[d].open != nullptr) close_transfer(*conn, d, -1);
      }
      conn->serial = 0;
      return;
    case TransportEventKind::kHandshakeRetry:
      return;  // the flight recorder's alone; the SYN it resends is a kSyn
    default:
      break;
  }
  FlowLedgerRecord* rec = conn == nullptr ? nullptr : conn->half[dir].open;
  if (rec == nullptr) {
    ++stray_events_;
    return;
  }
  record_on_transfer(e, conn->half[dir], *rec);
}

namespace {

/// The record's open fast/SACK recovery interval, or null. Intervals never
/// overlap, so at most the last one is open.
FlowEpisode* open_recovery(FlowLedgerRecord& rec) {
  for (std::size_t i = rec.episode_count; i-- > 0;) {
    FlowEpisode& e = rec.episodes[i];
    if (e.end_ns < 0 && (e.kind == FlowEpisodeKind::kFastRecovery ||
                         e.kind == FlowEpisodeKind::kSackRecovery)) {
      return &e;
    }
  }
  return nullptr;
}

void add_episode(FlowLedgerRecord& rec, FlowEpisodeKind kind, std::int64_t start_ns,
                 std::int64_t end_ns, std::int64_t detail) {
  if (rec.episode_count < kFlowMaxEpisodes) {
    rec.episodes[rec.episode_count++] = FlowEpisode{start_ns, end_ns, detail, kind};
  }
}

}  // namespace

void FlowLedger::record_on_transfer(const TransportEvent& e, HalfLive& h,
                                    FlowLedgerRecord& rec) {
  switch (e.kind) {
    case TransportEventKind::kDrop: {
      ++rec.drops_total;
      const std::int64_t id = ++next_drop_id_;
      if (rec.drop_count >= kFlowMaxDrops) return;
      FlowDropEvent& d = rec.drops[rec.drop_count++];
      d = FlowDropEvent{.id = id,
                        .t_ns = e.t_ns,
                        .seq = e.seq,
                        .len = e.len,
                        .cause = static_cast<FlowDropCause>(e.a),
                        .port = static_cast<std::int32_t>(e.b)};
      if (d.cause == FlowDropCause::kSwitchBuffer) {
        d.switch_id = switch_id_;
        d.fault_epoch = switch_drop_fault_epoch_;
      } else if (d.cause == FlowDropCause::kPathLoss) {
        d.fault_epoch = kFaultEpochPathLoss;
      }
      return;
    }
    case TransportEventKind::kRetransmit: {
      ++rec.rtx_total;
      rec.rtx_bytes += e.len;
      const auto kind = static_cast<FlowRtxKind>(e.a);
      // Causal link: claim the earliest unclaimed drop overlapping this byte
      // range; a go-back-N resend with no drop of its own inherits the drop
      // the RTO was pinned on.
      std::int64_t cause_id = -1;
      for (std::size_t i = 0; i < rec.drop_count; ++i) {
        FlowDropEvent& d = rec.drops[i];
        if (!d.claimed && d.seq < e.seq + e.len && e.seq < d.seq + d.len) {
          d.claimed = true;
          cause_id = d.id;
          break;
        }
      }
      if (cause_id < 0 && kind == FlowRtxKind::kRto) cause_id = h.rto_cause_id;
      if (rec.rtx_count < kFlowMaxRtx) {
        rec.rtxs[rec.rtx_count++] = FlowRtxEvent{e.t_ns, e.seq, e.len, cause_id, kind};
      }
      return;
    }
    case TransportEventKind::kFastRecovery:
    case TransportEventKind::kSackRecovery:
      if (open_recovery(rec) != nullptr) return;  // episodes never overlap
      add_episode(rec,
                  e.kind == TransportEventKind::kFastRecovery
                      ? FlowEpisodeKind::kFastRecovery
                      : FlowEpisodeKind::kSackRecovery,
                  e.t_ns, -1, 0);
      return;
    case TransportEventKind::kRecoveryExit:
      if (FlowEpisode* open = open_recovery(rec)) open->end_ns = e.t_ns;
      return;
    case TransportEventKind::kRto:
      ++rec.rto_count;
      // A timeout ends any loss-recovery episode in flight (the scoreboard /
      // inflation state is discarded for go-back-N).
      if (FlowEpisode* open = open_recovery(rec)) open->end_ns = e.t_ns;
      // Pin the timeout on the drop covering the stalled ACK edge, so the
      // go-back-N resends that follow inherit the true cause.
      h.rto_cause_id = -1;
      for (std::size_t i = 0; i < rec.drop_count; ++i) {
        const FlowDropEvent& d = rec.drops[i];
        if (d.seq <= e.seq && e.seq < d.seq + d.len) {
          h.rto_cause_id = d.id;
          break;
        }
      }
      add_episode(rec, FlowEpisodeKind::kRto, e.t_ns, e.t_ns, e.b);
      return;
    case TransportEventKind::kEcnReduction:
      ++rec.ecn_reductions;
      add_episode(rec, FlowEpisodeKind::kEcnReduction, e.t_ns, e.t_ns, e.a);
      return;
    default:
      return;
  }
}

void FlowLedger::finalize() {
  std::vector<ConnLive*> pending;
  for (ConnLive& conn : live_) {
    if (conn.serial != 0 && (conn.half[0].open != nullptr || conn.half[1].open != nullptr)) {
      pending.push_back(&conn);
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const ConnLive* a, const ConnLive* b) { return a->serial < b->serial; });
  for (ConnLive* conn : pending) {
    for (int dir = 0; dir < 2; ++dir) {
      if (conn->half[dir].open != nullptr) close_transfer(*conn, dir, -1);
    }
  }
}

FlowLedgerDump FlowLedger::snapshot() const {
  FlowLedgerDump dump;
  dump.source_id = source_id_;
  dump.total = total_;
  dump.stray_events = stray_events_;
  const std::size_t size = ring_.size();
  const bool wrapped = total_ >= static_cast<std::int64_t>(size);
  const std::size_t count = wrapped ? size : static_cast<std::size_t>(total_);
  dump.records.reserve(count);
  const std::size_t start = wrapped ? next_ : 0;
  for (std::size_t i = 0; i < count; ++i) {
    dump.records.push_back(ring_[(start + i) % size]);
  }
  return dump;
}

FlowLedgerDump FlowLedger::take() {
  FlowLedgerDump dump;
  dump.source_id = source_id_;
  dump.total = total_;
  dump.stray_events = stray_events_;
  if (total_ < static_cast<std::int64_t>(ring_.size())) {
    ring_.resize(static_cast<std::size_t>(total_));  // never wrapped: oldest-first already
  } else {
    // The oldest record sits at next_: the slot the next close overwrites.
    std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(next_), ring_.end());
  }
  dump.records = std::exchange(ring_, {});
  next_ = 0;
  return dump;
}

// ---- canonical JSONL ----

namespace {

void append_record(std::string& out, std::uint64_t source, const FlowLedgerRecord& r) {
  JsonWriter w{out};
  w.begin_object()
      .field("source", source)
      .field("id", r.id)
      .field("tag", r.flow_tag)
      .field("dir", r.dir == 0 ? "out" : "in")
      .field("role", core::to_string(r.role))
      .field("peer_role", core::to_string(r.peer_role))
      .field("locality", core::to_string(r.locality))
      .field("tuple", r.tuple.to_string())
      .field("born_ns", r.conn_born_ns)
      .field("syn_sends", r.syn_sends)
      .field("established_ns", r.established_ns)
      .field("start_ns", r.start_ns)
      .field("completed_ns", r.completed_ns)
      .field("bytes", r.bytes)
      .field("rtx_bytes", r.rtx_bytes)
      .field("rtt_ns", r.rtt_ns)
      .field("bottleneck_bps", r.bottleneck_bps)
      .field("ideal_ns", r.ideal_ns)
      .field("drops_total", r.drops_total)
      .field("rtx_total", r.rtx_total)
      .field("rto_count", r.rto_count)
      .field("ecn_reductions", r.ecn_reductions)
      .key("drops")
      .begin_array();
  for (std::size_t i = 0; i < r.drop_count; ++i) {
    const FlowDropEvent& e = r.drops[i];
    w.begin_object()
        .field("id", e.id)
        .field("t_ns", e.t_ns)
        .field("seq", e.seq)
        .field("len", e.len)
        .field("cause", to_string(e.cause))
        .field("switch", e.switch_id)
        .field("port", e.port)
        .field("fault_epoch", e.fault_epoch)
        .field("claimed", e.claimed ? 1 : 0)
        .end_object();
  }
  w.end_array().key("rtx").begin_array();
  for (std::size_t i = 0; i < r.rtx_count; ++i) {
    const FlowRtxEvent& e = r.rtxs[i];
    w.begin_object()
        .field("t_ns", e.t_ns)
        .field("seq", e.seq)
        .field("len", e.len)
        .field("kind", to_string(e.kind))
        .field("cause_id", e.cause_id)
        .end_object();
  }
  w.end_array().key("episodes").begin_array();
  for (std::size_t i = 0; i < r.episode_count; ++i) {
    const FlowEpisode& e = r.episodes[i];
    w.begin_object()
        .field("kind", to_string(e.kind))
        .field("start_ns", e.start_ns)
        .field("end_ns", e.end_ns)
        .field("detail", e.detail)
        .end_object();
  }
  w.end_array().end_object();
  out += '\n';
}

}  // namespace

std::string flows_to_jsonl(std::vector<FlowLedgerDump> dumps) {
  sort_by_source(dumps);
  std::string out;
  for (const FlowLedgerDump& dump : dumps) {
    for (const FlowLedgerRecord& r : dump.records) append_record(out, dump.source_id, r);
  }
  return out;
}

}  // namespace fbdcsim::telemetry
