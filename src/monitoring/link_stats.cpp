#include "fbdcsim/monitoring/link_stats.h"

#include <algorithm>
#include <stdexcept>

namespace fbdcsim::monitoring {

LinkStats::LinkStats(const topology::Network& network, core::Duration horizon)
    : network_{&network},
      minutes_{(horizon.count_nanos() + 59'999'999'999LL) / 60'000'000'000LL} {
  if (minutes_ <= 0) throw std::invalid_argument{"LinkStats: horizon must be positive"};
  bytes_.assign(network.links().size(), std::vector<double>(static_cast<std::size_t>(minutes_), 0.0));
}

void LinkStats::add(core::LinkId link, core::TimePoint start, core::Duration dur,
                    core::DataSize bytes) {
  auto& row = bytes_.at(link.value());
  constexpr std::int64_t kMinuteNs = 60'000'000'000LL;
  const std::int64_t b = bytes.count_bytes();
  if (dur.count_nanos() <= 0) {
    const std::int64_t m = std::clamp<std::int64_t>(start.count_nanos() / kMinuteNs, 0, minutes_ - 1);
    row[static_cast<std::size_t>(m)] += static_cast<double>(b);
    return;
  }
  const std::int64_t t0 = start.count_nanos();
  const std::int64_t t1 = t0 + dur.count_nanos();
  std::int64_t m = std::clamp<std::int64_t>(t0 / kMinuteNs, 0, minutes_ - 1);
  while (true) {
    const std::int64_t bin_start = m * kMinuteNs;
    const std::int64_t bin_end = bin_start + kMinuteNs;
    const std::int64_t lo = std::max(t0, bin_start);
    const std::int64_t hi = std::min(t1, bin_end);
    if (hi > lo) {
      const double frac = static_cast<double>(hi - lo) / static_cast<double>(t1 - t0);
      row[static_cast<std::size_t>(m)] += static_cast<double>(b) * frac;
    }
    if (t1 <= bin_end || m >= minutes_ - 1) break;
    ++m;
  }
}

void LinkStats::add_path(std::span<const core::LinkId> path, core::TimePoint start,
                         core::Duration dur, core::DataSize bytes) {
  for (const core::LinkId link : path) add(link, start, dur, bytes);
}

double LinkStats::utilization(core::LinkId link, std::int64_t minute) const {
  const auto& row = bytes_.at(link.value());
  const double b = row.at(static_cast<std::size_t>(minute));
  const double capacity_bytes =
      static_cast<double>(network_->link(link).capacity.count_bits_per_sec()) / 8.0 * 60.0;
  return b / capacity_bytes;
}

double LinkStats::mean_utilization(core::LinkId link) const {
  double acc = 0.0;
  for (std::int64_t m = 0; m < minutes_; ++m) acc += utilization(link, m);
  return acc / static_cast<double>(minutes_);
}

}  // namespace fbdcsim::monitoring
