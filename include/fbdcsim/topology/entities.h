// The fleet entity model: sites contain datacenters contain clusters contain
// racks contain hosts (Section 3.1). The Fleet is an immutable, index-based
// arena built once by a builder; all IDs are dense indices into its vectors.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fbdcsim/core/addr.h"
#include "fbdcsim/core/flow.h"
#include "fbdcsim/core/ids.h"
#include "fbdcsim/core/units.h"

namespace fbdcsim::topology {

using core::ClusterId;
using core::DatacenterId;
using core::HostId;
using core::HostRole;
using core::RackId;
using core::SiteId;

/// The deployment flavour of a cluster (Section 3.1): homogeneous clusters
/// hold one role; Frontend clusters mix Web, cache followers, Multifeed, and
/// SLB racks.
enum class ClusterType : std::uint8_t {
  kFrontend,
  kCache,        // cache leader clusters
  kHadoop,
  kDatabase,
  kService,
};

[[nodiscard]] const char* to_string(ClusterType type);

struct Host {
  HostId id;
  RackId rack;
  ClusterId cluster;
  DatacenterId datacenter;
  SiteId site;
  HostRole role{HostRole::kService};
  /// The host's index in its Rack::hosts, which is also its RSW downlink
  /// port. Sits in the padding after `role`.
  std::uint16_t rack_slot{0};
  core::Ipv4Addr addr;
};

struct Rack {
  RackId id;
  ClusterId cluster;
  DatacenterId datacenter;
  SiteId site;
  HostRole role{HostRole::kService};  // racks are role-homogeneous (§3.1)
  std::vector<HostId> hosts;
};

struct Cluster {
  ClusterId id;
  DatacenterId datacenter;
  SiteId site;
  ClusterType type{ClusterType::kService};
  std::vector<RackId> racks;
};

struct Datacenter {
  DatacenterId id;
  SiteId site;
  std::vector<ClusterId> clusters;
};

struct Site {
  SiteId id;
  std::string name;
  std::vector<DatacenterId> datacenters;
};

/// Immutable description of the whole simulated fleet.
class Fleet {
 public:
  [[nodiscard]] std::span<const Host> hosts() const { return hosts_; }
  [[nodiscard]] std::span<const Rack> racks() const { return racks_; }
  [[nodiscard]] std::span<const Cluster> clusters() const { return clusters_; }
  [[nodiscard]] std::span<const Datacenter> datacenters() const { return datacenters_; }
  [[nodiscard]] std::span<const Site> sites() const { return sites_; }

  [[nodiscard]] const Host& host(HostId id) const { return hosts_.at(id.value()); }
  [[nodiscard]] const Rack& rack(RackId id) const { return racks_.at(id.value()); }
  [[nodiscard]] const Cluster& cluster(ClusterId id) const { return clusters_.at(id.value()); }
  [[nodiscard]] const Datacenter& datacenter(DatacenterId id) const {
    return datacenters_.at(id.value());
  }
  [[nodiscard]] const Site& site(SiteId id) const { return sites_.at(id.value()); }

  /// Host lookup by address; returns an invalid id if unknown. O(1): the
  /// address encodes (datacenter, rack_in_dc, host_in_rack), and build()
  /// fills each datacenter's rack_in_dc -> RackId table.
  [[nodiscard]] HostId host_by_addr(core::Ipv4Addr addr) const;

  /// All hosts of a given role, fleet-wide.
  [[nodiscard]] std::vector<HostId> hosts_with_role(HostRole role) const;

  /// All hosts of a given role within one cluster.
  [[nodiscard]] std::vector<HostId> hosts_with_role_in_cluster(HostRole role,
                                                               ClusterId cluster) const;

  /// Relative location of dst with respect to src (Section 4.2).
  [[nodiscard]] core::Locality locality(HostId src, HostId dst) const {
    return locality(host(src), host(dst));
  }
  [[nodiscard]] static core::Locality locality(const Host& src, const Host& dst);

  [[nodiscard]] std::size_t num_hosts() const { return hosts_.size(); }
  [[nodiscard]] std::size_t num_racks() const { return racks_.size(); }

 private:
  friend class FleetBuilder;

  std::vector<Host> hosts_;
  std::vector<Rack> racks_;
  std::vector<Cluster> clusters_;
  std::vector<Datacenter> datacenters_;
  std::vector<Site> sites_;
  /// dc_racks_[dc][rack_in_dc]: racks in cluster declaration order.
  std::vector<std::vector<RackId>> dc_racks_;
};

/// Incrementally constructs a Fleet. The builder assigns dense IDs and
/// location-encoding IPv4 addresses (see addressing.h).
class FleetBuilder {
 public:
  SiteId add_site(std::string name);
  DatacenterId add_datacenter(SiteId site);
  ClusterId add_cluster(DatacenterId dc, ClusterType type);
  RackId add_rack(ClusterId cluster, HostRole role);
  HostId add_host(RackId rack);

  /// Adds `num_hosts` hosts to a fresh rack; returns the rack id.
  RackId add_rack_of(ClusterId cluster, HostRole role, std::size_t num_hosts);

  [[nodiscard]] Fleet build();

 private:
  Fleet fleet_;
  /// Position of each rack within its cluster, by RackId.
  std::vector<std::uint32_t> rack_in_cluster_;
};

}  // namespace fbdcsim::topology
