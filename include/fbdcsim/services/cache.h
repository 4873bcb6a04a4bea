// Cache-tier traffic models (Sections 3.2, 4.2, 5.2; Table 2 rows "Cache-f"
// and "Cache-l").
//
// Followers serve reads for the Web servers of their own cluster; because
// user requests are load-balanced over all Web servers and objects are
// small, follower traffic is uniform, stable, and cluster-dominated.
// Leaders keep the geographically-distributed cache coherent: their traffic
// reaches followers in other clusters, databases, and other datacenters
// (Table 3 Cache column: ~0.2% rack, 13% cluster, 41% DC, 46% inter-DC).
//
// Hot-object dynamics (§5.2): bursts of demand for single objects arrive as
// surge events; with mitigation enabled the surge is clipped after the
// cache instructs Web servers to cache the object and replicates sustained
// shards, keeping per-second rates within a factor of two of the median
// (Figure 8c). The ablation bench disables mitigation to show the
// instability that load management removes.
//
// Both models are transport-agnostic (see Wire): pooled follower/leader
// connections skip the handshake under RackSimConfig::transport = kTcp and
// are born established, matching the paper's long-lived cache sessions.
#pragma once

#include <optional>
#include <vector>

#include "fbdcsim/core/distributions.h"
#include "fbdcsim/services/traffic_model.h"

namespace fbdcsim::services {

class CacheFollowerModel : public TrafficModel {
 public:
  CacheFollowerModel(const topology::Fleet& fleet, core::HostId self, const ServiceMix& mix,
                     core::RngStream rng);

  /// Number of hot-object surge events so far (observability for tests).
  [[nodiscard]] std::int64_t surges_started() const { return surges_started_; }
  [[nodiscard]] std::int64_t surges_mitigated() const { return surges_mitigated_; }

 private:
  void schedule_first() override;
  void serve_get();
  /// A hot-object surge: raises the get rate for the surge's lifetime.
  void start_surge();

  core::LogNormal object_size_;

  /// Shard leaders this follower fills from and the handful of background
  /// service endpoints it logs to (fixed, like real shard maps).
  std::vector<core::HostId> leader_peers_;
  std::vector<core::HostId> misc_peers_;

  /// Per-second demand weights over the cluster's Web racks: user sessions
  /// and page mixes make each rack's request rate wobble around its mean
  /// (~±25%%), which is the residual per-rack variation of Figure 8c (the
  /// paper: the median flow shows a >20%% deviation in ~45%% of seconds,
  /// yet ~90%% of samples stay within 2x of the median).
  void refresh_rack_weights();
  [[nodiscard]] std::optional<core::HostId> pick_requester();
  std::vector<double> rack_weight_cdf_;
  std::vector<std::vector<core::HostId>> web_hosts_by_rack_;
  std::int64_t weight_epoch_{-1};

  /// Extra demand multiplier contributed by active surges.
  double surge_multiplier_{1.0};
  std::int64_t surges_started_{0};
  std::int64_t surges_mitigated_{0};
};

class CacheLeaderModel : public TrafficModel {
 public:
  CacheLeaderModel(const topology::Fleet& fleet, core::HostId self, const ServiceMix& mix,
                   core::RngStream rng);

 private:
  void schedule_first() override;
  void send_coherency();

  /// Follower scope chosen per Table 3's Cache locality mix.
  [[nodiscard]] Scope follower_scope();

  core::LogNormal coherency_size_;
  core::LogNormal object_size_;

  /// Fixed shard databases and background endpoints.
  std::vector<core::HostId> db_peers_;
  std::vector<core::HostId> mf_peers_;
  std::vector<core::HostId> misc_peers_;

  /// Multifeed-invalidation and background message rates (per second).
  double mf_rate_{0.0};
  double misc_rate_{0.0};
};

}  // namespace fbdcsim::services
