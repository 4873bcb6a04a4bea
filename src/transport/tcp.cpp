#include "fbdcsim/transport/tcp.h"

#include <algorithm>

namespace fbdcsim::transport {

std::int64_t cwnd_after_ack(std::int64_t cwnd, std::int64_t ssthresh,
                            std::int64_t acked_bytes, std::int64_t mss,
                            std::int64_t max_cwnd) {
  if (acked_bytes <= 0) return cwnd;
  if (cwnd < ssthresh) {
    // Slow start: cwnd grows by the bytes newly acknowledged (doubling per
    // RTT), never overshooting ssthresh by more than one increment.
    cwnd += std::min(acked_bytes, mss);
  } else {
    // Congestion avoidance: +mss per cwnd of acked data, i.e. mss^2/cwnd
    // per full-MSS ACK (at least 1 byte so growth never stalls).
    cwnd += std::max<std::int64_t>(1, mss * mss / std::max<std::int64_t>(cwnd, 1));
  }
  return std::min(cwnd, max_cwnd);
}

std::int64_t ssthresh_on_loss(std::int64_t inflight, std::int64_t mss) {
  return std::max(inflight / 2, 2 * mss);
}

void enter_fast_recovery(HalfStream& h) {
  h.ssthresh = ssthresh_on_loss(h.inflight(), kMssBytes);
  h.cwnd = h.ssthresh + kDupackThreshold * kMssBytes;
  h.in_recovery = true;
  h.recover = h.snd_nxt;
  h.rtx_next = h.snd_una;
  h.dupacks = 0;
}

void apply_rto(HalfStream& h) {
  h.ssthresh = ssthresh_on_loss(h.inflight(), kMssBytes);
  h.cwnd = kMssBytes;
  h.in_recovery = false;
  h.dupacks = 0;
  h.rtx_next = -1;
  // Go-back-N: transmission restarts from the lowest unacknowledged byte.
  h.snd_nxt = h.snd_una;
  h.backoff = std::min(h.backoff + 1, kMaxBackoff);
}

std::int64_t dctcp_alpha_update(std::int64_t alpha_q16, std::int64_t marked_bytes,
                                std::int64_t acked_bytes, int gain_shift) {
  if (acked_bytes <= 0) return std::clamp<std::int64_t>(alpha_q16, 0, kDctcpAlphaUnit);
  const std::int64_t fraction_q16 = std::clamp<std::int64_t>(
      std::clamp<std::int64_t>(marked_bytes, 0, acked_bytes) * kDctcpAlphaUnit /
          acked_bytes,
      0, kDctcpAlphaUnit);
  const std::int64_t alpha = std::clamp<std::int64_t>(alpha_q16, 0, kDctcpAlphaUnit);
  // Decay at least one Q16 unit (as Linux's min_not_zero does) so alpha
  // reaches exactly 0 under sustained zero marking instead of stalling
  // below 2^gain_shift on the integer floor.
  std::int64_t decay = alpha >> gain_shift;
  if (decay == 0 && alpha > 0) decay = 1;
  return std::clamp<std::int64_t>(alpha - decay + (fraction_q16 >> gain_shift), 0,
                                  kDctcpAlphaUnit);
}

std::int64_t dctcp_cwnd_after_mark(std::int64_t cwnd, std::int64_t alpha_q16,
                                   std::int64_t mss) {
  const std::int64_t alpha = std::clamp<std::int64_t>(alpha_q16, 0, kDctcpAlphaUnit);
  return std::max(mss, cwnd - cwnd * alpha / (2 * kDctcpAlphaUnit));
}

bool receiver_deliver(HalfStream& h, std::int64_t seq, std::int64_t len, bool psh) {
  if (len <= 0) return false;
  const std::int64_t end = seq + len;
  if (end <= h.rcv_nxt) {
    // Fully duplicate (retransmission overlap): re-ACK immediately so the
    // sender's cumulative state catches up.
    return true;
  }
  if (seq > h.rcv_nxt) {
    // Out of order: remember the range if there is room (overflow just
    // means the sender retransmits more) and signal a duplicate ACK.
    if (h.ooo_count < HalfStream::kMaxOooRanges) {
      RangeBlock& r = h.ranges.get_or_create();
      r.ooo_lo[h.ooo_count] = seq;
      r.ooo_hi[h.ooo_count] = end;
      ++h.ooo_count;
    }
    return true;
  }

  // In order (possibly overlapping the front): advance and merge.
  h.rcv_nxt = end;
  bool any_merge = false;
  bool merged = true;
  RangeBlock* r = h.ranges.get();  // dereferenced only below a nonzero count
  while (merged) {
    merged = false;
    for (int i = 0; i < h.ooo_count; ++i) {
      if (r->ooo_lo[i] <= h.rcv_nxt) {
        h.rcv_nxt = std::max(h.rcv_nxt, r->ooo_hi[i]);
        r->ooo_lo[i] = r->ooo_lo[h.ooo_count - 1];
        r->ooo_hi[i] = r->ooo_hi[h.ooo_count - 1];
        --h.ooo_count;
        merged = true;
        any_merge = true;
        break;
      }
    }
  }

  if (psh || any_merge || h.ooo_count > 0) {
    h.segs_since_ack = 0;
    return true;
  }
  // Delayed ACK: every second in-order segment.
  if (++h.segs_since_ack >= 2) {
    h.segs_since_ack = 0;
    return true;
  }
  return false;
}

SackBlock receiver_sack_block(const HalfStream& h, std::int64_t seq, std::int64_t end) {
  if (h.ooo_count == 0) return {};
  const RangeBlock& r = *h.ranges.get();
  // Seed with the delivered segment when some buffered range covers it
  // (i.e. it landed out of order and was remembered); otherwise report the
  // lowest buffered range — the one the sender most urgently needs.
  std::int64_t lo = seq;
  std::int64_t hi = end;
  bool seeded = false;
  for (int i = 0; i < h.ooo_count; ++i) {
    if (r.ooo_lo[i] <= seq && end <= r.ooo_hi[i]) {
      seeded = true;
      break;
    }
  }
  if (!seeded) {
    int lowest = 0;
    for (int i = 1; i < h.ooo_count; ++i) {
      if (r.ooo_lo[i] < r.ooo_lo[lowest]) lowest = i;
    }
    lo = r.ooo_lo[lowest];
    hi = r.ooo_hi[lowest];
  }
  // Expand to the maximal contiguous range: the buffered set is unordered
  // and may hold duplicates/overlaps, so chase overlap-or-adjacency to a
  // fixpoint (bounded by kMaxOooRanges passes).
  bool grew = true;
  while (grew) {
    grew = false;
    for (int i = 0; i < h.ooo_count; ++i) {
      if (r.ooo_lo[i] <= hi && r.ooo_hi[i] >= lo &&
          (r.ooo_lo[i] < lo || r.ooo_hi[i] > hi)) {
        lo = std::min(lo, r.ooo_lo[i]);
        hi = std::max(hi, r.ooo_hi[i]);
        grew = true;
      }
    }
  }
  return {lo, hi};
}

std::int64_t sack_record(HalfStream& h, std::int64_t lo, std::int64_t hi) {
  lo = std::max(lo, h.snd_una);
  hi = std::min(hi, h.max_sent);
  if (hi <= lo) return 0;

  // Absorb every existing range that overlaps or abuts [lo, hi). The
  // absorbed ranges are disjoint, so the bytes the merge adds are the
  // merged span minus what was already sacked inside it.
  RangeBlock& r = h.ranges.get_or_create();
  std::int64_t absorbed = 0;
  int w = 0;
  for (int i = 0; i < h.sack_count; ++i) {
    if (r.sack_lo[i] <= hi && r.sack_hi[i] >= lo) {
      absorbed += r.sack_hi[i] - r.sack_lo[i];
      lo = std::min(lo, r.sack_lo[i]);
      hi = std::max(hi, r.sack_hi[i]);
    } else {
      r.sack_lo[w] = r.sack_lo[i];
      r.sack_hi[w] = r.sack_hi[i];
      ++w;
    }
  }
  if (absorbed == 0 && w >= HalfStream::kMaxSackRanges) {
    // Full and nothing to merge with: drop the new block. Existing sacked
    // ranges are never evicted — losing them would re-mark delivered bytes
    // as holes and trigger spurious retransmissions.
    return 0;
  }
  // Insert the merged range keeping the list sorted by lo.
  int pos = w;
  while (pos > 0 && r.sack_lo[pos - 1] > lo) {
    r.sack_lo[pos] = r.sack_lo[pos - 1];
    r.sack_hi[pos] = r.sack_hi[pos - 1];
    --pos;
  }
  r.sack_lo[pos] = lo;
  r.sack_hi[pos] = hi;
  h.sack_count = w + 1;
  return (hi - lo) - absorbed;
}

void sack_advance(HalfStream& h) {
  RangeBlock* r = h.ranges.get();  // dereferenced only below a nonzero count
  int w = 0;
  for (int i = 0; i < h.sack_count; ++i) {
    if (r->sack_hi[i] <= h.snd_una) continue;
    r->sack_lo[w] = std::max(r->sack_lo[i], h.snd_una);
    r->sack_hi[w] = r->sack_hi[i];
    ++w;
  }
  h.sack_count = w;
}

std::int64_t sack_sacked_bytes(const HalfStream& h) {
  const RangeBlock* r = h.ranges.get();
  std::int64_t total = 0;
  for (int i = 0; i < h.sack_count; ++i) {
    total += r->sack_hi[i] - std::max(r->sack_lo[i], h.snd_una);
  }
  return total;
}

std::int64_t sack_fack(const HalfStream& h) {
  const RangeBlock* r = h.ranges.get();
  std::int64_t fack = h.snd_una;
  for (int i = 0; i < h.sack_count; ++i) fack = std::max(fack, r->sack_hi[i]);
  return fack;
}

std::int64_t sack_lost_bytes(const HalfStream& h) {
  return (sack_fack(h) - h.snd_una) - sack_sacked_bytes(h);
}

std::int64_t sack_rtx_out_bytes(const HalfStream& h) {
  const RangeBlock* r = h.ranges.get();
  const std::int64_t ceil =
      std::clamp(h.high_rtx, h.snd_una, sack_fack(h));
  std::int64_t sacked_below = 0;
  for (int i = 0; i < h.sack_count; ++i) {
    const std::int64_t lo = std::max(r->sack_lo[i], h.snd_una);
    const std::int64_t hi = std::min(r->sack_hi[i], ceil);
    if (hi > lo) sacked_below += hi - lo;
  }
  return (ceil - h.snd_una) - sacked_below;
}

std::int64_t sack_pipe(const HalfStream& h) {
  return h.inflight() - sack_sacked_bytes(h) - sack_lost_bytes(h) +
         sack_rtx_out_bytes(h);
}

bool sack_should_enter_recovery(const HalfStream& h) {
  if (h.dupacks >= kDupackThreshold) return true;
  const std::int64_t sacked = sack_sacked_bytes(h);
  if (sacked <= 0) return false;
  // RFC 6675 IsLost(snd_una): enough segments above the hole arrived that
  // reordering is ruled out even before kDupackThreshold dupacks.
  if (sacked >= static_cast<std::int64_t>(kDupackThreshold) * kMssBytes) return true;
  // RFC 5827 early retransmit: a window under 4 segments cannot generate 3
  // dupacks, so the threshold shrinks to (outstanding − 1).
  const std::int64_t oseg = (h.inflight() + kMssBytes - 1) / kMssBytes;
  if (oseg < 4 && h.dupacks >= std::max<std::int64_t>(1, oseg - 1)) return true;
  return false;
}

void enter_sack_recovery(HalfStream& h) {
  h.ssthresh = ssthresh_on_loss(h.inflight(), kMssBytes);
  // No dupack inflation: sack_pipe gates what the recovery pump may send,
  // so cwnd drops straight to the halved value (RFC 6675 §5).
  h.cwnd = h.ssthresh;
  h.in_recovery = true;
  h.recover = h.snd_nxt;
  h.rtx_next = -1;
  h.dupacks = 0;
  h.high_rtx = h.snd_una;
  h.rescue_done = false;
}

SackNextSeg sack_next_seg(const HalfStream& h, std::int64_t mss) {
  const RangeBlock* r = h.ranges.get();
  // Rule 1: the lowest unsacked hole at/above high_rtx. Scoreboard ranges
  // are sorted and disjoint, so walk them advancing a cursor; any gap in
  // front of a range is a hole (necessarily below fack).
  std::int64_t cursor = std::max(h.snd_una, h.high_rtx);
  for (int i = 0; i < h.sack_count; ++i) {
    if (r->sack_hi[i] <= cursor) continue;
    if (cursor < r->sack_lo[i]) {
      return {cursor, std::min(mss, r->sack_lo[i] - cursor), true, false};
    }
    cursor = r->sack_hi[i];
  }
  // Rule 2: previously unsent data.
  if (h.snd_nxt < h.demand) {
    return {h.snd_nxt, std::min(mss, h.demand - h.snd_nxt), false, false};
  }
  // Rule 4 (rescue): once per episode, when the tail of the recovery window
  // is unsacked (fack < recover), resend its last chunk — otherwise a lost
  // tail inside the episode generates no dupacks and waits out the RTO.
  if (h.in_recovery && !h.rescue_done) {
    const std::int64_t fack = sack_fack(h);
    if (fack < h.recover) {
      const std::int64_t seq = std::max(fack, h.recover - mss);
      return {seq, h.recover - seq, true, true};
    }
  }
  return {};
}

void apply_rto_sack(HalfStream& h) {
  // Fall back to go-back-N: the scoreboard is forgotten wholesale (RFC 2018
  // receivers may renege, so a timeout must not trust sacked ranges) and the
  // per-episode retransmission state resets with it.
  h.sack_count = 0;
  h.rescue_done = false;
  apply_rto(h);
  h.high_rtx = h.snd_una;
}

}  // namespace fbdcsim::transport
