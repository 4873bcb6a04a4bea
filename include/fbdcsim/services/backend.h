// Backend service models: Multifeed, SLB, Database, and miscellaneous
// Service hosts. These roles complete the request pipeline of Figure 2 and
// the cluster mix of Table 3; they are simpler than the Web/cache/Hadoop
// models but fully functional, so any rack in the fleet can be monitored.
// All of them emit through Wire, so they run unchanged on either transport
// backend (scripted packets or the flow-level TCP engine, DESIGN.md §10).
#pragma once

#include <memory>
#include <vector>

#include "fbdcsim/core/distributions.h"
#include "fbdcsim/services/traffic_model.h"

namespace fbdcsim::services {

/// Multifeed / ads aggregation backends: answer Web-tier RPCs with ranked
/// feed fragments; receive invalidations from cache leaders.
class MultifeedModel : public TrafficModel {
 public:
  MultifeedModel(const topology::Fleet& fleet, core::HostId self, const ServiceMix& mix,
                 core::RngStream rng);

 private:
  void schedule_first() override;

  core::LogNormal response_size_;
};

/// Layer-4 software load balancers: user requests in from the edge, pages
/// out to users; request forwarding to Web servers spread across the
/// cluster (the load-balancing mechanism itself).
class SlbModel : public TrafficModel {
 public:
  SlbModel(const topology::Fleet& fleet, core::HostId self, const ServiceMix& mix,
           core::RngStream rng);

 private:
  void schedule_first() override;

  core::LogNormal page_size_;
};

/// MySQL database servers: serve cache-leader queries and replicate to
/// sibling databases within the cluster, across the datacenter, and across
/// sites in roughly even proportion (Table 3 DB row).
class DatabaseModel : public TrafficModel {
 public:
  DatabaseModel(const topology::Fleet& fleet, core::HostId self, const ServiceMix& mix,
                core::RngStream rng);

 private:
  void schedule_first() override;

  core::LogNormal response_size_;
  std::vector<core::HostId> replica_peers_;
};

/// Miscellaneous supporting services: log sinks, config distribution,
/// monitoring. Mostly passive receivers with light background chatter.
class ServiceHostModel : public TrafficModel {
 public:
  ServiceHostModel(const topology::Fleet& fleet, core::HostId self, const ServiceMix& mix,
                   core::RngStream rng);

 private:
  void schedule_first() override;
  void send_message();
};

/// Constructs the model matching a host's role.
[[nodiscard]] std::unique_ptr<TrafficModel> make_model(const topology::Fleet& fleet,
                                                       core::HostId host,
                                                       const ServiceMix& mix,
                                                       core::RngStream rng);

}  // namespace fbdcsim::services
