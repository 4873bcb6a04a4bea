// Peer selection with explicit locality scopes.
//
// The paper attributes its headline results to *where* services find their
// peers: Web servers and cache followers spread load uniformly across the
// whole cluster (load balancing, §5.2), cache leaders reach across clusters
// and datacenters (the cache is "a single geographically distributed
// instance"), and Hadoop prefers its own rack. PeerSelector encodes those
// policies; the LB-off ablation swaps uniform choice for a Zipf-skewed one.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "fbdcsim/core/distributions.h"
#include "fbdcsim/core/flow.h"
#include "fbdcsim/core/ids.h"
#include "fbdcsim/core/rng.h"
#include "fbdcsim/topology/entities.h"

namespace fbdcsim::services {

/// Where a peer may be, relative to the selecting host. The values are fixed:
/// deleting a scope leaves a gap rather than renumbering the scopes after it,
/// so a scope prints (in logs and test names) as the same number it always had.
enum class Scope : std::uint8_t {
  kSameRack = 0,                     // own rack, excluding self
  kSameCluster = 1,                  // own cluster (any rack), excluding self
  kSameClusterOtherRack = 2,         // own cluster, different rack
  kSameDatacenterOtherCluster = 3,
  kSameDatacenter = 4,               // own DC, any cluster, excluding self
  kOtherDatacenters = 7,             // anywhere outside own DC
};

[[nodiscard]] const char* to_string(Scope scope);

/// Whether `candidate` lies within `scope` of `self`. Both simulation tiers
/// select peers by this one predicate: PeerSelector for the rack models,
/// workload::RoleIndex for fleet flows. It does not test identity — both
/// callers exclude `self` themselves.
[[nodiscard]] inline bool in_scope(const topology::Host& self, const topology::Host& candidate,
                                   Scope scope) {
  const topology::Host& c = candidate;
  switch (scope) {
    case Scope::kSameRack:
      return c.rack == self.rack;
    case Scope::kSameCluster:
      return c.cluster == self.cluster;
    case Scope::kSameClusterOtherRack:
      return c.cluster == self.cluster && c.rack != self.rack;
    case Scope::kSameDatacenterOtherCluster:
      return c.datacenter == self.datacenter && c.cluster != self.cluster;
    case Scope::kSameDatacenter:
      return c.datacenter == self.datacenter;
    case Scope::kOtherDatacenters:
      return c.datacenter != self.datacenter;
  }
  return false;
}

/// Selects peers of a given role within a scope, uniformly (load-balanced)
/// or Zipf-skewed (for the load-balancing-off ablation). Candidate lists
/// are resolved once per (role, scope) and cached.
class PeerSelector {
 public:
  PeerSelector(const topology::Fleet& fleet, core::HostId self)
      : fleet_{&fleet}, self_{self} {}

  /// All candidates of `role` within `scope` (stable order, self excluded).
  [[nodiscard]] std::span<const core::HostId> candidates(core::HostRole role, Scope scope);

  /// Uniform choice; nullopt if no candidate exists.
  [[nodiscard]] std::optional<core::HostId> pick(core::HostRole role, Scope scope,
                                                 core::RngStream& rng);

  /// Zipf-skewed choice over the candidate list; models concentrated
  /// demand (no load balancing, or hot shards). `rotation` shifts which
  /// candidates are hot — advancing it over time makes the hot set churn,
  /// which is how rapidly-changing heavy hitters (§5.3) arise.
  [[nodiscard]] std::optional<core::HostId> pick_skewed(core::HostRole role, Scope scope,
                                                        core::RngStream& rng,
                                                        double zipf_exponent = 1.2,
                                                        std::uint64_t rotation = 0);

  /// A fixed set of up to `count` distinct peers of `role` within `scope`.
  /// Services do not scatter their background/shard traffic over the whole
  /// fleet: log sinks, shard leaders, and replica sets are small, stable
  /// peer groups. Models draw such groups once at construction.
  [[nodiscard]] std::vector<core::HostId> pick_set(core::HostRole role, Scope scope,
                                                   std::size_t count, core::RngStream& rng);

  [[nodiscard]] core::HostId self() const { return self_; }
  [[nodiscard]] const topology::Fleet& fleet() const { return *fleet_; }

 private:
  const topology::Fleet* fleet_;
  core::HostId self_;
  std::map<std::pair<core::HostRole, Scope>, std::vector<core::HostId>> cache_;
  std::map<std::pair<core::HostRole, Scope>, core::Zipf> zipf_cache_;
};

}  // namespace fbdcsim::services
