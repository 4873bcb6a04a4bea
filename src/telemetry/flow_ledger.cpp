#include "fbdcsim/telemetry/flow_ledger.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

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
  ConnLive& conn = live_[tag];
  conn = ConnLive{};
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
  const auto it = live_.find(e.tag);
  ConnLive* conn = it == live_.end() ? nullptr : &it->second;
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
      live_.erase(it);
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
  for (auto& [tag, conn] : live_) {
    if (conn.half[0].open != nullptr || conn.half[1].open != nullptr) {
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

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_record(std::string& out, std::uint64_t source,
                   const FlowLedgerRecord& r) {
  out += "{\"source\":";
  append_uint(out, source);
  out += ",\"id\":";
  append_int(out, r.id);
  out += ",\"tag\":";
  append_uint(out, r.flow_tag);
  out += ",\"dir\":\"";
  out += r.dir == 0 ? "out" : "in";
  out += "\",\"role\":\"";
  out += core::to_string(r.role);
  out += "\",\"peer_role\":\"";
  out += core::to_string(r.peer_role);
  out += "\",\"locality\":\"";
  out += core::to_string(r.locality);
  out += "\",\"tuple\":\"";
  out += r.tuple.to_string();
  out += "\",\"born_ns\":";
  append_int(out, r.conn_born_ns);
  out += ",\"syn_sends\":";
  append_int(out, r.syn_sends);
  out += ",\"established_ns\":";
  append_int(out, r.established_ns);
  out += ",\"start_ns\":";
  append_int(out, r.start_ns);
  out += ",\"completed_ns\":";
  append_int(out, r.completed_ns);
  out += ",\"bytes\":";
  append_int(out, r.bytes);
  out += ",\"rtx_bytes\":";
  append_int(out, r.rtx_bytes);
  out += ",\"rtt_ns\":";
  append_int(out, r.rtt_ns);
  out += ",\"bottleneck_bps\":";
  append_int(out, r.bottleneck_bps);
  out += ",\"ideal_ns\":";
  append_int(out, r.ideal_ns);
  out += ",\"drops_total\":";
  append_int(out, r.drops_total);
  out += ",\"rtx_total\":";
  append_int(out, r.rtx_total);
  out += ",\"rto_count\":";
  append_int(out, r.rto_count);
  out += ",\"ecn_reductions\":";
  append_int(out, r.ecn_reductions);
  out += ",\"drops\":[";
  for (std::size_t i = 0; i < r.drop_count; ++i) {
    const FlowDropEvent& e = r.drops[i];
    if (i > 0) out += ',';
    out += "{\"id\":";
    append_int(out, e.id);
    out += ",\"t_ns\":";
    append_int(out, e.t_ns);
    out += ",\"seq\":";
    append_int(out, e.seq);
    out += ",\"len\":";
    append_int(out, e.len);
    out += ",\"cause\":\"";
    out += to_string(e.cause);
    out += "\",\"switch\":";
    append_uint(out, e.switch_id);
    out += ",\"port\":";
    append_int(out, e.port);
    out += ",\"fault_epoch\":";
    append_int(out, e.fault_epoch);
    out += ",\"claimed\":";
    out += e.claimed ? '1' : '0';
    out += '}';
  }
  out += "],\"rtx\":[";
  for (std::size_t i = 0; i < r.rtx_count; ++i) {
    const FlowRtxEvent& e = r.rtxs[i];
    if (i > 0) out += ',';
    out += "{\"t_ns\":";
    append_int(out, e.t_ns);
    out += ",\"seq\":";
    append_int(out, e.seq);
    out += ",\"len\":";
    append_int(out, e.len);
    out += ",\"kind\":\"";
    out += to_string(e.kind);
    out += "\",\"cause_id\":";
    append_int(out, e.cause_id);
    out += '}';
  }
  out += "],\"episodes\":[";
  for (std::size_t i = 0; i < r.episode_count; ++i) {
    const FlowEpisode& e = r.episodes[i];
    if (i > 0) out += ',';
    out += "{\"kind\":\"";
    out += to_string(e.kind);
    out += "\",\"start_ns\":";
    append_int(out, e.start_ns);
    out += ",\"end_ns\":";
    append_int(out, e.end_ns);
    out += ",\"detail\":";
    append_int(out, e.detail);
    out += '}';
  }
  out += "]}\n";
}

}  // namespace

std::string flows_to_jsonl(std::vector<FlowLedgerDump> dumps) {
  std::stable_sort(dumps.begin(), dumps.end(),
                   [](const FlowLedgerDump& a, const FlowLedgerDump& b) {
                     return a.source_id < b.source_id;
                   });
  std::string out;
  for (const FlowLedgerDump& dump : dumps) {
    for (const FlowLedgerRecord& r : dump.records) {
      append_record(out, dump.source_id, r);
    }
  }
  return out;
}

// ---- parser (inverse of flows_to_jsonl, canonical input) ----

namespace {

struct Cursor {
  const char* p;
  const char* end;

  [[nodiscard]] bool done() const { return p >= end; }
  [[nodiscard]] bool eat(char c) {
    if (done() || *p != c) return false;
    ++p;
    return true;
  }
  [[nodiscard]] bool peek(char c) const { return !done() && *p == c; }
};

bool parse_int(Cursor& c, std::int64_t& out) {
  const bool neg = c.eat('-');
  if (c.done() || *c.p < '0' || *c.p > '9') return false;
  std::int64_t v = 0;
  while (!c.done() && *c.p >= '0' && *c.p <= '9') {
    v = v * 10 + (*c.p - '0');
    ++c.p;
  }
  out = neg ? -v : v;
  return true;
}

bool parse_string(Cursor& c, std::string& out) {
  if (!c.eat('"')) return false;
  out.clear();
  while (!c.done() && *c.p != '"') {
    if (*c.p == '\\') return false;  // canonical output never escapes
    out += *c.p++;
  }
  return c.eat('"');
}

bool parse_key(Cursor& c, const char* key) {
  std::string k;
  return parse_string(c, k) && k == key && c.eat(':');
}

template <typename Enum, std::size_t N>
bool enum_from_string(const std::string& s, const Enum (&values)[N], Enum& out) {
  for (const Enum v : values) {
    if (s == to_string(v)) {
      out = v;
      return true;
    }
  }
  return false;
}

bool parse_tuple(const std::string& s, core::FiveTuple& out) {
  const auto arrow = s.find("->");
  const auto slash = s.rfind('/');
  if (arrow == std::string::npos || slash == std::string::npos || slash < arrow) {
    return false;
  }
  const auto endpoint = [](const std::string& part, core::Ipv4Addr& addr,
                           core::Port& port) {
    const auto colon = part.rfind(':');
    if (colon == std::string::npos) return false;
    if (!core::Ipv4Addr::try_parse(part.substr(0, colon), addr)) return false;
    std::int64_t p = 0;
    Cursor c{part.data() + colon + 1, part.data() + part.size()};
    if (!parse_int(c, p) || !c.done() || p < 0 || p > 65535) return false;
    port = static_cast<core::Port>(p);
    return true;
  };
  if (!endpoint(s.substr(0, arrow), out.src_ip, out.src_port)) return false;
  if (!endpoint(s.substr(arrow + 2, slash - arrow - 2), out.dst_ip, out.dst_port)) {
    return false;
  }
  const std::string proto = s.substr(slash + 1);
  if (proto == "tcp") {
    out.protocol = core::Protocol::kTcp;
  } else if (proto == "udp") {
    out.protocol = core::Protocol::kUdp;
  } else {
    return false;
  }
  return true;
}

constexpr core::HostRole kAllRoles[] = {
    core::HostRole::kWeb,       core::HostRole::kCacheFollower,
    core::HostRole::kCacheLeader, core::HostRole::kHadoop,
    core::HostRole::kMultifeed, core::HostRole::kSlb,
    core::HostRole::kDatabase,  core::HostRole::kService};
constexpr core::Locality kAllLocalities[] = {
    core::Locality::kIntraRack, core::Locality::kIntraCluster,
    core::Locality::kIntraDatacenter, core::Locality::kInterDatacenter};
constexpr FlowDropCause kAllCauses[] = {FlowDropCause::kSwitchBuffer,
                                        FlowDropCause::kPathLoss,
                                        FlowDropCause::kScripted};
constexpr FlowRtxKind kAllRtxKinds[] = {FlowRtxKind::kDupack, FlowRtxKind::kRto};
constexpr FlowEpisodeKind kAllEpisodeKinds[] = {
    FlowEpisodeKind::kFastRecovery, FlowEpisodeKind::kSackRecovery,
    FlowEpisodeKind::kRto, FlowEpisodeKind::kEcnReduction};

bool parse_record_line(Cursor& c, std::uint64_t& source, FlowLedgerRecord& r) {
  std::int64_t v = 0;
  std::string s;
  const auto int_field = [&](const char* key, std::int64_t& out) {
    return c.eat(',') && parse_key(c, key) && parse_int(c, out);
  };
  if (!c.eat('{') || !parse_key(c, "source") || !parse_int(c, v) || v < 0) return false;
  source = static_cast<std::uint64_t>(v);
  if (!int_field("id", r.id)) return false;
  if (!int_field("tag", v) || v < 0) return false;
  r.flow_tag = static_cast<std::uint32_t>(v);
  if (!c.eat(',') || !parse_key(c, "dir") || !parse_string(c, s)) return false;
  if (s == "out") {
    r.dir = 0;
  } else if (s == "in") {
    r.dir = 1;
  } else {
    return false;
  }
  if (!c.eat(',') || !parse_key(c, "role") || !parse_string(c, s) ||
      !enum_from_string(s, kAllRoles, r.role)) {
    return false;
  }
  if (!c.eat(',') || !parse_key(c, "peer_role") || !parse_string(c, s) ||
      !enum_from_string(s, kAllRoles, r.peer_role)) {
    return false;
  }
  if (!c.eat(',') || !parse_key(c, "locality") || !parse_string(c, s) ||
      !enum_from_string(s, kAllLocalities, r.locality)) {
    return false;
  }
  if (!c.eat(',') || !parse_key(c, "tuple") || !parse_string(c, s) ||
      !parse_tuple(s, r.tuple)) {
    return false;
  }
  if (!int_field("born_ns", r.conn_born_ns)) return false;
  if (!int_field("syn_sends", r.syn_sends)) return false;
  if (!int_field("established_ns", r.established_ns)) return false;
  if (!int_field("start_ns", r.start_ns)) return false;
  if (!int_field("completed_ns", r.completed_ns)) return false;
  if (!int_field("bytes", r.bytes)) return false;
  if (!int_field("rtx_bytes", r.rtx_bytes)) return false;
  if (!int_field("rtt_ns", r.rtt_ns)) return false;
  if (!int_field("bottleneck_bps", r.bottleneck_bps)) return false;
  if (!int_field("ideal_ns", r.ideal_ns)) return false;
  if (!int_field("drops_total", r.drops_total)) return false;
  if (!int_field("rtx_total", r.rtx_total)) return false;
  if (!int_field("rto_count", r.rto_count)) return false;
  if (!int_field("ecn_reductions", r.ecn_reductions)) return false;

  if (!c.eat(',') || !parse_key(c, "drops") || !c.eat('[')) return false;
  while (!c.peek(']')) {
    if (r.drop_count >= kFlowMaxDrops) return false;
    if (r.drop_count > 0 && !c.eat(',')) return false;
    FlowDropEvent& e = r.drops[r.drop_count];
    if (!c.eat('{') || !parse_key(c, "id") || !parse_int(c, e.id)) return false;
    if (!int_field("t_ns", e.t_ns)) return false;
    if (!int_field("seq", e.seq)) return false;
    if (!int_field("len", e.len)) return false;
    if (!c.eat(',') || !parse_key(c, "cause") || !parse_string(c, s) ||
        !enum_from_string(s, kAllCauses, e.cause)) {
      return false;
    }
    if (!int_field("switch", v) || v < 0) return false;
    e.switch_id = static_cast<std::uint64_t>(v);
    if (!int_field("port", v)) return false;
    e.port = static_cast<std::int32_t>(v);
    if (!int_field("fault_epoch", e.fault_epoch)) return false;
    if (!int_field("claimed", v) || (v != 0 && v != 1)) return false;
    e.claimed = v == 1;
    if (!c.eat('}')) return false;
    ++r.drop_count;
  }
  if (!c.eat(']')) return false;

  if (!c.eat(',') || !parse_key(c, "rtx") || !c.eat('[')) return false;
  while (!c.peek(']')) {
    if (r.rtx_count >= kFlowMaxRtx) return false;
    if (r.rtx_count > 0 && !c.eat(',')) return false;
    FlowRtxEvent& e = r.rtxs[r.rtx_count];
    if (!c.eat('{') || !parse_key(c, "t_ns") || !parse_int(c, e.t_ns)) return false;
    if (!int_field("seq", e.seq)) return false;
    if (!int_field("len", e.len)) return false;
    if (!c.eat(',') || !parse_key(c, "kind") || !parse_string(c, s) ||
        !enum_from_string(s, kAllRtxKinds, e.kind)) {
      return false;
    }
    if (!int_field("cause_id", e.cause_id)) return false;
    if (!c.eat('}')) return false;
    ++r.rtx_count;
  }
  if (!c.eat(']')) return false;

  if (!c.eat(',') || !parse_key(c, "episodes") || !c.eat('[')) return false;
  while (!c.peek(']')) {
    if (r.episode_count >= kFlowMaxEpisodes) return false;
    if (r.episode_count > 0 && !c.eat(',')) return false;
    FlowEpisode& e = r.episodes[r.episode_count];
    if (!c.eat('{') || !parse_key(c, "kind") || !parse_string(c, s) ||
        !enum_from_string(s, kAllEpisodeKinds, e.kind)) {
      return false;
    }
    if (!int_field("start_ns", e.start_ns)) return false;
    if (!int_field("end_ns", e.end_ns)) return false;
    if (!int_field("detail", e.detail)) return false;
    if (!c.eat('}')) return false;
    ++r.episode_count;
  }
  return c.eat(']') && c.eat('}');
}

}  // namespace

std::optional<std::vector<FlowLedgerDump>> flows_from_jsonl(std::string_view jsonl,
                                                            std::string* error) {
  const auto fail = [error](std::size_t line_no, const char* why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return std::nullopt;
  };
  std::vector<FlowLedgerDump> dumps;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    ++line_no;
    auto nl = jsonl.find('\n', pos);
    if (nl == std::string_view::npos) return fail(line_no, "missing trailing newline");
    const std::string_view line = jsonl.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    Cursor c{line.data(), line.data() + line.size()};
    std::uint64_t source = 0;
    FlowLedgerRecord r;
    if (!parse_record_line(c, source, r) || !c.done()) {
      return fail(line_no, "malformed flow record");
    }
    if (dumps.empty() || dumps.back().source_id != source) {
      FlowLedgerDump dump;
      dump.source_id = source;
      dumps.push_back(std::move(dump));
    }
    dumps.back().records.push_back(r);
  }
  for (FlowLedgerDump& dump : dumps) {
    dump.total = static_cast<std::int64_t>(dump.records.size());
  }
  return dumps;
}

}  // namespace fbdcsim::telemetry
