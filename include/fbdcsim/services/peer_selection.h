// Peer selection with explicit locality scopes.
//
// The paper attributes its headline results to *where* services find their
// peers: Web servers and cache followers spread load uniformly across the
// whole cluster (load balancing, §5.2), cache leaders reach across clusters
// and datacenters (the cache is "a single geographically distributed
// instance"), and Hadoop prefers its own rack. PeerSelector encodes those
// policies; the LB-off ablation swaps uniform choice for a Zipf-skewed one.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
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
/// are resolved on first use per (role, scope) and kept in a fixed table,
/// so every later lookup is one index.
class PeerSelector {
 public:
  PeerSelector(const topology::Fleet& fleet, core::HostId self)
      : fleet_{&fleet}, self_{self} {}

  /// All candidates of `role` within `scope` (stable order, self excluded).
  /// The span stays valid for the selector's lifetime.
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

  /// How many peers a fixed set draws from one scope.
  struct ScopeCount {
    Scope scope;
    std::size_t count;
  };

  /// A fixed set of peers of `role`: up to `count` distinct ones from each
  /// listed scope, concatenated in list order. Services do not scatter
  /// their background/shard traffic over the whole fleet: log sinks, shard
  /// leaders, and replica sets are small, stable peer groups. Models draw
  /// such groups once at construction.
  [[nodiscard]] std::vector<core::HostId> pick_set(core::HostRole role,
                                                   std::initializer_list<ScopeCount> scopes,
                                                   core::RngStream& rng);

  [[nodiscard]] core::HostId self() const { return self_; }
  [[nodiscard]] const topology::Fleet& fleet() const { return *fleet_; }

 private:
  /// One (role, scope) pair: its candidates once resolved, and the Zipf
  /// table over them once a skewed pick asks for one.
  struct Entry {
    bool resolved{false};
    std::vector<core::HostId> candidates;
    std::optional<core::Zipf> zipf;
  };
  static constexpr std::size_t kRoles = 8;       // core::HostRole values
  static constexpr std::size_t kScopeSlots = 8;  // Scope values span 0..7

  [[nodiscard]] Entry& entry(core::HostRole role, Scope scope);

  const topology::Fleet* fleet_;
  core::HostId self_;
  std::array<Entry, kRoles * kScopeSlots> entries_;
};

}  // namespace fbdcsim::services
