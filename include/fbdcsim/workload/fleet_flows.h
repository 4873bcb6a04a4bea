// Fleet-level flow generation (the Fbflow-scale view).
//
// For each host, per epoch, emits FlowRecords for every traffic component
// of its role — the same causal structure as the packet-level models
// (destination service mix from Table 2, destination scopes from the
// placement policies of §3.2/§4.2), but at flow granularity so 24-hour
// whole-fleet horizons are tractable. Demand follows the diurnal profile
// of §4.1 (~2x peak-to-trough).
//
// Consumers stream records into FbflowPipeline (Table 3, Figure 5, the
// sampling-rate ablation) and LinkStats via Router (§4.1 utilization).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fbdcsim/core/distributions.h"
#include "fbdcsim/core/flow.h"
#include "fbdcsim/core/rng.h"
#include "fbdcsim/services/params.h"
#include "fbdcsim/services/peer_selection.h"
#include "fbdcsim/topology/entities.h"

namespace fbdcsim::faults {
class FaultPlan;
}  // namespace fbdcsim::faults

namespace fbdcsim::workload {

/// Fast (role, scope) peer lookup shared across all source hosts — the
/// fleet-wide equivalent of services::PeerSelector, without per-host
/// candidate caches.
class RoleIndex {
 public:
  explicit RoleIndex(const topology::Fleet& fleet);

  /// A uniformly chosen peer of `role` within `scope` relative to `src`;
  /// invalid id if none exists.
  [[nodiscard]] core::HostId pick(core::HostId src, core::HostRole role,
                                  services::Scope scope, core::RngStream& rng) const;

 private:
  [[nodiscard]] const std::vector<core::HostId>* bucket_for(const topology::Host& src,
                                                            core::HostRole role,
                                                            services::Scope scope) const;

  const topology::Fleet* fleet_;
  // hosts by (cluster, role), (datacenter, role), and (role) fleet-wide.
  std::vector<std::vector<std::vector<core::HostId>>> by_cluster_role_;
  std::vector<std::vector<std::vector<core::HostId>>> by_dc_role_;
  std::vector<std::vector<core::HostId>> by_role_;
};

struct FleetGenConfig {
  core::Duration horizon = core::Duration::hours(24);
  /// Flow records are drawn per epoch; finer epochs give finer time
  /// structure at proportional cost.
  core::Duration epoch = core::Duration::minutes(30);
  /// Uniform multiplier on per-host byte rates (scaled-down fleets use <1
  /// to keep sampled-record volumes proportional to the real system's).
  double rate_scale = 1.0;
  /// Peer-flows drawn per traffic component per epoch. More flows spread
  /// the same bytes more thinly (finer spatial granularity).
  int flows_per_component = 12;
  core::DiurnalProfile::Params diurnal;
  std::uint64_t seed = 1;
  services::ServiceMix mix;
  /// Optional fault schedule: hosts crashed for the epoch containing a
  /// flow's start emit and receive nothing (the flow is skipped; skips are
  /// counted in the "fleet.host_down_skipped" telemetry counter). Null or
  /// disabled plans take the exact fault-free path. Decisions depend only
  /// on the flow itself, so per-host generation stays shard-independent.
  const faults::FaultPlan* faults = nullptr;
};

class FleetFlowGenerator {
 public:
  FleetFlowGenerator(const topology::Fleet& fleet, FleetGenConfig config);

  using Visit = std::function<void(const core::FlowRecord&)>;

  /// Streams every generated flow record to `visit` (no buffering).
  void generate(const Visit& visit) const;

  /// Generates flows for a single host (all epochs) — used by
  /// runtime::ShardedFleetRunner and tests. The host's randomness
  /// is forked from the root seed by host ID, so this is safe to call
  /// concurrently for distinct hosts and the output never depends on which
  /// other hosts were generated first.
  void generate_for_host(core::HostId host, const Visit& visit) const;

  [[nodiscard]] const RoleIndex& index() const { return index_; }
  [[nodiscard]] const topology::Fleet& fleet() const { return *fleet_; }

 private:
  struct Component;  // one (dst-role, scope-mix, byte-rate) traffic class

  void emit_component(core::HostId src, const Component& comp, std::int64_t epoch_index,
                      core::RngStream& rng, const Visit& visit) const;
  [[nodiscard]] std::vector<Component> components_for(core::HostRole role) const;

  const topology::Fleet* fleet_;
  FleetGenConfig config_;
  /// Seeded once from config_.seed; `fork` is const, so concurrent
  /// generate_for_host calls share it.
  core::RngStream root_;
  RoleIndex index_;
  core::DiurnalProfile diurnal_;
};

}  // namespace fbdcsim::workload
