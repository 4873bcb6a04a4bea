#include "fbdcsim/services/peer_selection.h"

#include <algorithm>
#include <set>

namespace fbdcsim::services {

const char* to_string(Scope scope) {
  switch (scope) {
    case Scope::kSameRack: return "same-rack";
    case Scope::kSameCluster: return "same-cluster";
    case Scope::kSameClusterOtherRack: return "same-cluster-other-rack";
    case Scope::kSameDatacenterOtherCluster: return "same-dc-other-cluster";
    case Scope::kSameDatacenter: return "same-dc";
    case Scope::kOtherDatacenters: return "other-dcs";
  }
  return "?";
}

PeerSelector::Entry& PeerSelector::entry(core::HostRole role, Scope scope) {
  static_assert(static_cast<std::size_t>(core::HostRole::kService) + 1 == kRoles);
  static_assert(static_cast<std::size_t>(Scope::kOtherDatacenters) < kScopeSlots);
  Entry& e = entries_[static_cast<std::size_t>(role) * kScopeSlots +
                      static_cast<std::size_t>(scope)];
  if (!e.resolved) {
    const topology::Host& self = fleet_->host(self_);
    for (const topology::Host& h : fleet_->hosts()) {
      if (h.id == self_ || h.role != role) continue;
      if (in_scope(self, h, scope)) e.candidates.push_back(h.id);
    }
    e.resolved = true;
  }
  return e;
}

std::span<const core::HostId> PeerSelector::candidates(core::HostRole role, Scope scope) {
  return entry(role, scope).candidates;
}

std::optional<core::HostId> PeerSelector::pick(core::HostRole role, Scope scope,
                                               core::RngStream& rng) {
  const auto list = candidates(role, scope);
  if (list.empty()) return std::nullopt;
  return list[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(list.size()) - 1))];
}

std::optional<core::HostId> PeerSelector::pick_skewed(core::HostRole role, Scope scope,
                                                      core::RngStream& rng,
                                                      double zipf_exponent,
                                                      std::uint64_t rotation) {
  Entry& e = entry(role, scope);
  const std::span<const core::HostId> list = e.candidates;
  if (list.empty()) return std::nullopt;
  if (!e.zipf || e.zipf->exponent() != zipf_exponent) {
    e.zipf.emplace(list.size(), zipf_exponent);
  }
  const std::size_t rank = e.zipf->sample(rng);
  // Scatter ranks over the candidate list with a rotation-dependent
  // affine map, so the hot set is a pseudo-random subset that changes
  // whenever `rotation` advances.
  const std::size_t idx = static_cast<std::size_t>(
      core::splitmix64(rank * 0x9E3779B97F4A7C15ULL ^ rotation) % list.size());
  return list[idx];
}

std::vector<core::HostId> PeerSelector::pick_set(core::HostRole role,
                                                 std::initializer_list<ScopeCount> scopes,
                                                 core::RngStream& rng) {
  std::vector<core::HostId> out;
  for (const auto& [scope, want] : scopes) {
    const auto list = candidates(role, scope);
    const std::size_t count = std::min(want, list.size());
    std::set<std::size_t> chosen;
    while (chosen.size() < count) {
      chosen.insert(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(list.size()) - 1)));
    }
    for (const std::size_t i : chosen) out.push_back(list[i]);
  }
  return out;
}

}  // namespace fbdcsim::services
