// Web-server traffic model (Sections 3.2, 4.2; Table 2 row "Web").
//
// A Web server is stateless. Per user request it: receives the request from
// an SLB, issues a burst of cache gets fanned uniformly over the cluster's
// cache followers, makes a couple of Multifeed/ads calls, and returns the
// page to the SLB. A separate background process emits miscellaneous
// traffic to Service hosts across the datacenter and other datacenters.
//
// Emergent behaviours this model must reproduce (validated in tests and
// benches): the Table 2 outbound mix, Figure 4's flat cluster-dominated
// locality, sub-200-byte median packets (Figure 12), ~2 ms median SYN
// interarrival (Figure 14), internally bursty long-lived flows (§5.1), and
// 10s-to-100s of concurrent destination racks (Figure 16a).
//
// The model is transport-agnostic: all wire traffic goes through Wire,
// which either scripts packets directly (default) or hands demand to the
// flow-level TCP engine (RackSimConfig::transport = kTcp; DESIGN.md §10).
#pragma once

#include <memory>

#include "fbdcsim/core/distributions.h"
#include "fbdcsim/services/traffic_model.h"

namespace fbdcsim::services {

class WebServerModel : public TrafficModel {
 public:
  WebServerModel(const topology::Fleet& fleet, core::HostId self, const ServiceMix& mix,
                 core::RngStream rng);

 private:
  void schedule_first() override;
  void serve_user_request();

  core::LogNormal slb_response_;
  core::LogNormal hot_response_;
  core::LogNormal cold_response_;
  core::LogNormal cache_response_;  // used for ephemeral one-shot gets
  std::vector<core::HostId> misc_peers_;
  /// Object popularity for cache reads: gets are routed to followers by
  /// consistent hashing on the key, so a Web server's instantaneous
  /// per-follower demand is popularity-skewed even though the *aggregate*
  /// load each follower sees (over all Web servers) is balanced. This is
  /// what keeps instantaneous heavy hitters poorly predicted by the
  /// enclosing second (Figure 11).
  std::unique_ptr<core::Zipf> object_popularity_;

  double misc_bytes_per_sec_{0.0};
};

}  // namespace fbdcsim::services
