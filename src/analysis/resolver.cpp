#include "fbdcsim/analysis/resolver.h"

namespace fbdcsim::analysis {

std::optional<core::RackId> AddrResolver::rack_of(core::Ipv4Addr addr) const {
  const core::HostId id = host_of(addr);
  if (!id.is_valid()) return std::nullopt;
  return fleet_->host(id).rack;
}

std::optional<core::HostRole> AddrResolver::role_of(core::Ipv4Addr addr) const {
  const core::HostId id = host_of(addr);
  if (!id.is_valid()) return std::nullopt;
  return fleet_->host(id).role;
}

std::optional<core::Locality> AddrResolver::locality(core::Ipv4Addr src,
                                                     core::Ipv4Addr dst) const {
  const core::HostId s = host_of(src);
  const core::HostId d = host_of(dst);
  if (!s.is_valid() || !d.is_valid()) return std::nullopt;
  return fleet_->locality(s, d);
}

}  // namespace fbdcsim::analysis
