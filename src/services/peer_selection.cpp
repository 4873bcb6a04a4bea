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

std::span<const core::HostId> PeerSelector::candidates(core::HostRole role, Scope scope) {
  const auto key = std::make_pair(role, scope);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    const topology::Host& self = fleet_->host(self_);
    std::vector<core::HostId> list;
    for (const topology::Host& h : fleet_->hosts()) {
      if (h.id == self_ || h.role != role) continue;
      if (in_scope(self, h, scope)) list.push_back(h.id);
    }
    it = cache_.emplace(key, std::move(list)).first;
  }
  return it->second;
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
  const auto list = candidates(role, scope);
  if (list.empty()) return std::nullopt;
  const auto key = std::make_pair(role, scope);
  auto it = zipf_cache_.find(key);
  if (it == zipf_cache_.end() || it->second.exponent() != zipf_exponent) {
    it = zipf_cache_.insert_or_assign(key, core::Zipf{list.size(), zipf_exponent}).first;
  }
  const std::size_t rank = it->second.sample(rng);
  // Scatter ranks over the candidate list with a rotation-dependent
  // affine map, so the hot set is a pseudo-random subset that changes
  // whenever `rotation` advances.
  const std::size_t idx = static_cast<std::size_t>(
      core::splitmix64(rank * 0x9E3779B97F4A7C15ULL ^ rotation) % list.size());
  return list[idx];
}

std::vector<core::HostId> PeerSelector::pick_set(core::HostRole role, Scope scope,
                                                 std::size_t count, core::RngStream& rng) {
  const auto list = candidates(role, scope);
  std::vector<core::HostId> out;
  if (list.empty()) return out;
  count = std::min(count, list.size());
  std::set<std::size_t> chosen;
  while (chosen.size() < count) {
    chosen.insert(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(list.size()) - 1)));
  }
  out.reserve(count);
  for (const std::size_t i : chosen) out.push_back(list[i]);
  return out;
}

}  // namespace fbdcsim::services
