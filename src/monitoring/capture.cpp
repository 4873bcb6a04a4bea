#include "fbdcsim/monitoring/capture.h"

#include <algorithm>
#include <utility>

namespace fbdcsim::monitoring {

CaptureBuffer::CaptureBuffer(std::int64_t memory_limit_bytes)
    : capacity_records_{std::max<std::int64_t>(1, memory_limit_bytes / kRecordBytes)} {}

bool CaptureBuffer::record(const core::PacketHeader& header) {
  if (static_cast<std::int64_t>(packets_.size()) >= capacity_records_) {
    ++dropped_;
    return false;
  }
  packets_.push_back(header);
  return true;
}

void CaptureBuffer::drop_injected() {
  ++dropped_;
  ++injected_dropped_;
}

core::PodVector<core::PacketHeader> CaptureBuffer::spool() { return std::move(packets_); }

void PortMirror::observe(const core::PacketHeader& header) {
  if (matches(header)) buffer_->record(header);
}

bool PortMirror::matches(const core::PacketHeader& header) const {
  for (const core::Ipv4Addr addr : monitored_) {
    if (header.tuple.src_ip == addr || header.tuple.dst_ip == addr) return true;
  }
  return false;
}

}  // namespace fbdcsim::monitoring
