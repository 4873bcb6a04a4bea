// Address -> topology resolution, shared by all analyses.
//
// Port-mirror traces contain only packet headers; every analysis that needs
// locality, roles, or rack identities resolves addresses against the fleet
// exactly as the paper's offline analyses join traces with metadata.
// Fleet::host_by_addr is a few vector loads, so nothing is cached and a
// resolver is safe to share across threads.
#pragma once

#include <optional>

#include "fbdcsim/core/flow.h"
#include "fbdcsim/core/packet.h"
#include "fbdcsim/topology/entities.h"

namespace fbdcsim::analysis {

class AddrResolver {
 public:
  explicit AddrResolver(const topology::Fleet& fleet) : fleet_{&fleet} {}

  [[nodiscard]] core::HostId host_of(core::Ipv4Addr addr) const {
    return fleet_->host_by_addr(addr);
  }
  [[nodiscard]] std::optional<core::RackId> rack_of(core::Ipv4Addr addr) const;
  [[nodiscard]] std::optional<core::HostRole> role_of(core::Ipv4Addr addr) const;

  /// Locality of dst relative to src; nullopt if either is unknown.
  [[nodiscard]] std::optional<core::Locality> locality(core::Ipv4Addr src,
                                                       core::Ipv4Addr dst) const;

  [[nodiscard]] const topology::Fleet& fleet() const { return *fleet_; }

 private:
  const topology::Fleet* fleet_;
};

}  // namespace fbdcsim::analysis
