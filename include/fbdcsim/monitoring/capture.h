// Port-mirroring capture path (Section 3.3.2).
//
// The paper mirrors one server's (or, for lightly loaded Web racks, a whole
// rack's) bidirectional traffic at the RSW into a collection host whose
// free RAM is pinned as a packet buffer — so capture length is bounded by
// memory, not by tcpdump throughput. CaptureBuffer models exactly that
// contract: header-only records, a hard memory bound, and loss accounting
// (the paper's RSWs mirror without loss; we surface overflow explicitly so
// experiments can assert it never happened).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fbdcsim/core/packet.h"
#include "fbdcsim/core/pod_vector.h"

namespace fbdcsim::monitoring {

class CaptureBuffer {
 public:
  /// `memory_limit` bounds the trace: each header record costs
  /// kRecordBytes of collection-host memory (pinned RAM).
  explicit CaptureBuffer(std::int64_t memory_limit_bytes = 8LL * 1024 * 1024 * 1024);

  /// Size of one stored header record on the collection host. This is the
  /// modelled host's per-record cost, which decides when the capture drops,
  /// not sizeof(core::PacketHeader) (40 bytes in this process's memory).
  static constexpr std::int64_t kRecordBytes = 64;

  /// Appends a header; returns false (and counts the loss) if full.
  bool record(const core::PacketHeader& header);

  /// Counts a loss injected upstream of the buffer (a mirror frame dropped
  /// while competing with live traffic under a fault plan). Folded into
  /// dropped() alongside overflow losses, and tracked separately so
  /// experiments can tell the two loss modes apart.
  void drop_injected();

  [[nodiscard]] std::span<const core::PacketHeader> packets() const { return packets_; }
  [[nodiscard]] std::size_t size() const { return packets_.size(); }
  [[nodiscard]] bool empty() const { return packets_.empty(); }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }
  [[nodiscard]] std::int64_t injected_dropped() const { return injected_dropped_; }
  [[nodiscard]] std::int64_t capacity_records() const { return capacity_records_; }

  /// Hands the trace off for analysis (spooling to remote storage in the
  /// paper's pipeline) and leaves the buffer empty. The trace is moved out,
  /// never copied.
  [[nodiscard]] core::PodVector<core::PacketHeader> spool();

 private:
  std::int64_t capacity_records_;
  std::int64_t dropped_{0};
  std::int64_t injected_dropped_{0};
  /// Grows in place (realloc remaps its pages), so the trace is never held
  /// twice while it grows.
  core::PodVector<core::PacketHeader> packets_;
};

/// The RSW-side mirroring rule: which hosts' ports are mirrored. The rack
/// simulation consults this for every packet crossing the switch and copies
/// matching headers into the capture buffer.
class PortMirror {
 public:
  PortMirror(std::vector<core::Ipv4Addr> monitored, CaptureBuffer& buffer)
      : monitored_{std::move(monitored)}, buffer_{&buffer} {}

  /// Mirrors the header if either endpoint is a monitored address.
  void observe(const core::PacketHeader& header);

  /// Whether observe() would mirror this header (either endpoint monitored).
  [[nodiscard]] bool matches(const core::PacketHeader& header) const;

  [[nodiscard]] std::span<const core::Ipv4Addr> monitored() const { return monitored_; }

 private:
  std::vector<core::Ipv4Addr> monitored_;
  CaptureBuffer* buffer_;
};

}  // namespace fbdcsim::monitoring
