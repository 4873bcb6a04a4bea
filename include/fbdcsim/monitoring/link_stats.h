// Per-link byte accounting with per-minute resolution — the SNMP-counter
// view used for the utilization analysis of Section 4.1 and the link
// utilization / drop panels of Figure 15.
//
// Utilization is always against a link's nominal capacity, as an SNMP
// counter reports it; one accumulator covers one run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fbdcsim/core/ids.h"
#include "fbdcsim/core/time.h"
#include "fbdcsim/core/units.h"
#include "fbdcsim/topology/network.h"

namespace fbdcsim::monitoring {

/// Accumulates bytes per (link, minute). Memory is O(links x minutes).
class LinkStats {
 public:
  LinkStats(const topology::Network& network, core::Duration horizon);

  /// Charges `bytes` to `link` spread uniformly over [start, start+dur).
  /// Durations that span minute boundaries are split proportionally.
  void add(core::LinkId link, core::TimePoint start, core::Duration dur, core::DataSize bytes);

  /// Charges a whole routed path.
  void add_path(std::span<const core::LinkId> path, core::TimePoint start, core::Duration dur,
                core::DataSize bytes);

  /// Utilization of a link in a given minute, as a fraction of capacity.
  [[nodiscard]] double utilization(core::LinkId link, std::int64_t minute) const;

  /// Mean utilization of a link over the whole horizon.
  [[nodiscard]] double mean_utilization(core::LinkId link) const;

  /// All per-minute utilization samples for links whose *source* endpoint
  /// matches a predicate — e.g. host uplinks, RSW->CSW, CSW->FC.
  template <typename Pred>
  [[nodiscard]] std::vector<double> utilizations_where(Pred pred) const {
    std::vector<double> out;
    for (const topology::Link& link : network_->links()) {
      if (!pred(link)) continue;
      for (std::int64_t m = 0; m < minutes_; ++m) {
        out.push_back(utilization(link.id, m));
      }
    }
    return out;
  }

  [[nodiscard]] std::int64_t minutes() const { return minutes_; }
  [[nodiscard]] const topology::Network& network() const { return *network_; }

 private:
  const topology::Network* network_;
  std::int64_t minutes_;
  std::vector<std::vector<double>> bytes_;  // [link][minute]
};

}  // namespace fbdcsim::monitoring
