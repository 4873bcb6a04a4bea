#include "fbdcsim/topology/entities.h"

#include "fbdcsim/topology/addressing.h"

namespace fbdcsim::topology {

const char* to_string(ClusterType type) {
  switch (type) {
    case ClusterType::kFrontend: return "Frontend";
    case ClusterType::kCache: return "Cache";
    case ClusterType::kHadoop: return "Hadoop";
    case ClusterType::kDatabase: return "DB";
    case ClusterType::kService: return "Service";
  }
  return "?";
}

HostId Fleet::host_by_addr(core::Ipv4Addr addr) const {
  const auto coords = AddressPlan::coordinates_of(addr);
  if (!coords || coords->dc_index >= dc_racks_.size()) return HostId::invalid();
  const std::vector<RackId>& racks = dc_racks_[coords->dc_index];
  if (coords->rack_in_dc >= racks.size()) return HostId::invalid();
  const std::vector<HostId>& hosts = racks_[racks[coords->rack_in_dc].value()].hosts;
  if (coords->host_in_rack >= hosts.size()) return HostId::invalid();
  return hosts[coords->host_in_rack];
}

std::vector<HostId> Fleet::hosts_with_role(HostRole role) const {
  std::vector<HostId> out;
  for (const Host& h : hosts_) {
    if (h.role == role) out.push_back(h.id);
  }
  return out;
}

std::vector<HostId> Fleet::hosts_with_role_in_cluster(HostRole role, ClusterId cluster) const {
  std::vector<HostId> out;
  for (const RackId rid : clusters_.at(cluster.value()).racks) {
    const Rack& rk = racks_[rid.value()];
    if (rk.role != role) continue;
    out.insert(out.end(), rk.hosts.begin(), rk.hosts.end());
  }
  return out;
}

core::Locality Fleet::locality(const Host& a, const Host& b) {
  if (a.rack == b.rack) return core::Locality::kIntraRack;
  if (a.cluster == b.cluster) return core::Locality::kIntraCluster;
  if (a.datacenter == b.datacenter) return core::Locality::kIntraDatacenter;
  return core::Locality::kInterDatacenter;
}

SiteId FleetBuilder::add_site(std::string name) {
  const SiteId id{static_cast<std::uint32_t>(fleet_.sites_.size())};
  fleet_.sites_.push_back(Site{id, std::move(name), {}});
  return id;
}

DatacenterId FleetBuilder::add_datacenter(SiteId site) {
  const DatacenterId id{static_cast<std::uint32_t>(fleet_.datacenters_.size())};
  fleet_.datacenters_.push_back(Datacenter{id, site, {}});
  fleet_.sites_.at(site.value()).datacenters.push_back(id);
  return id;
}

ClusterId FleetBuilder::add_cluster(DatacenterId dc, ClusterType type) {
  const ClusterId id{static_cast<std::uint32_t>(fleet_.clusters_.size())};
  const SiteId site = fleet_.datacenters_.at(dc.value()).site;
  fleet_.clusters_.push_back(Cluster{id, dc, site, type, {}});
  fleet_.datacenters_.at(dc.value()).clusters.push_back(id);
  return id;
}

RackId FleetBuilder::add_rack(ClusterId cluster, HostRole role) {
  const RackId id{static_cast<std::uint32_t>(fleet_.racks_.size())};
  const Cluster& cl = fleet_.clusters_.at(cluster.value());
  fleet_.racks_.push_back(Rack{id, cluster, cl.datacenter, cl.site, role, {}});
  rack_in_cluster_.push_back(static_cast<std::uint32_t>(cl.racks.size()));
  fleet_.clusters_.at(cluster.value()).racks.push_back(id);
  return id;
}

HostId FleetBuilder::add_host(RackId rack) {
  const HostId id{static_cast<std::uint32_t>(fleet_.hosts_.size())};
  Rack& rk = fleet_.racks_.at(rack.value());

  // Rack index within its datacenter, in cluster declaration order: the
  // racks of the earlier clusters, then the rack's place in its own.
  std::uint32_t rack_in_dc = rack_in_cluster_[rack.value()];
  for (const ClusterId cid : fleet_.datacenters_.at(rk.datacenter.value()).clusters) {
    if (cid == rk.cluster) break;
    rack_in_dc += static_cast<std::uint32_t>(fleet_.clusters_[cid.value()].racks.size());
  }

  const auto host_in_rack = static_cast<std::uint32_t>(rk.hosts.size());
  const core::Ipv4Addr addr =
      AddressPlan::address_for(rk.datacenter.value(), rack_in_dc, host_in_rack);

  // address_for bounds host_in_rack to 8 bits, so the slot fits.
  fleet_.hosts_.push_back(Host{id, rack, rk.cluster, rk.datacenter, rk.site, rk.role,
                               static_cast<std::uint16_t>(host_in_rack), addr});
  rk.hosts.push_back(id);
  return id;
}

RackId FleetBuilder::add_rack_of(ClusterId cluster, HostRole role, std::size_t num_hosts) {
  const RackId rack = add_rack(cluster, role);
  for (std::size_t i = 0; i < num_hosts; ++i) add_host(rack);
  return rack;
}

Fleet FleetBuilder::build() {
  fleet_.dc_racks_.assign(fleet_.datacenters_.size(), {});
  for (const Datacenter& dc : fleet_.datacenters_) {
    std::vector<RackId>& racks = fleet_.dc_racks_[dc.id.value()];
    for (const ClusterId cid : dc.clusters) {
      const auto& cl = fleet_.clusters_[cid.value()].racks;
      racks.insert(racks.end(), cl.begin(), cl.end());
    }
  }
  rack_in_cluster_.clear();
  return std::move(fleet_);
}

}  // namespace fbdcsim::topology
