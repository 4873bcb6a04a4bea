#include "fbdcsim/workload/fleet_flows.h"

#include <algorithm>
#include <cmath>

#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/telemetry/telemetry.h"

#if FBDCSIM_TELEMETRY_ENABLED
#include <array>
#include <cctype>
#include <string>
#endif

namespace fbdcsim::workload {

namespace {
using core::DataSize;
using core::Duration;
using core::HostId;
using core::HostRole;
using core::TimePoint;
using services::Scope;

double lognormal_mean(DataSize median, double sigma) {
  return static_cast<double>(median.count_bytes()) * std::exp(sigma * sigma / 2.0);
}

#if FBDCSIM_TELEMETRY_ENABLED
/// Per-role generated-flow counters ("fleet.flows.web", ...), created once.
telemetry::Counter& role_flow_counter(HostRole role) {
  static const std::array<telemetry::Counter*, 8> counters = [] {
    std::array<telemetry::Counter*, 8> out{};
    for (std::size_t r = 0; r < out.size(); ++r) {
      std::string name = std::string{"fleet.flows."} + core::to_string(static_cast<HostRole>(r));
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
      out[r] = &telemetry::MetricsRegistry::global().counter(name, telemetry::Kind::kSim);
    }
    return out;
  }();
  return *counters[static_cast<std::size_t>(role)];
}
#endif
}  // namespace

// ---------------------------------------------------------------------------
// RoleIndex
// ---------------------------------------------------------------------------

RoleIndex::RoleIndex(const topology::Fleet& fleet) : fleet_{&fleet} {
  constexpr std::size_t kRoles = 8;
  by_cluster_role_.assign(fleet.clusters().size(), std::vector<std::vector<HostId>>(kRoles));
  by_dc_role_.assign(fleet.datacenters().size(), std::vector<std::vector<HostId>>(kRoles));
  by_role_.assign(kRoles, {});
  for (const topology::Host& h : fleet.hosts()) {
    const auto r = static_cast<std::size_t>(h.role);
    by_cluster_role_[h.cluster.value()][r].push_back(h.id);
    by_dc_role_[h.datacenter.value()][r].push_back(h.id);
    by_role_[r].push_back(h.id);
  }
}

const std::vector<HostId>* RoleIndex::bucket_for(const topology::Host& src, HostRole role,
                                                 Scope scope) const {
  const auto r = static_cast<std::size_t>(role);
  switch (scope) {
    case Scope::kSameRack:
    case Scope::kSameCluster:
    case Scope::kSameClusterOtherRack:
      return &by_cluster_role_[src.cluster.value()][r];
    case Scope::kSameDatacenter:
    case Scope::kSameDatacenterOtherCluster:
      return &by_dc_role_[src.datacenter.value()][r];
    case Scope::kOtherDatacenters:
      return &by_role_[r];
  }
  return nullptr;
}

HostId RoleIndex::pick(HostId src_id, HostRole role, Scope scope, core::RngStream& rng) const {
  const topology::Host& src = fleet_->host(src_id);
  const std::vector<HostId>* bucket = bucket_for(src, role, scope);
  if (bucket == nullptr || bucket->empty()) return HostId::invalid();

  // Rejection-sample until the scope predicate holds. The buckets are
  // chosen so acceptance is high except for the "other-*" scopes on small
  // fleets; cap the attempts to stay deterministic-time.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const HostId cand = (*bucket)[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bucket->size()) - 1))];
    if (cand == src_id) continue;
    if (services::in_scope(src, fleet_->host(cand), scope)) return cand;
  }
  return HostId::invalid();
}

// ---------------------------------------------------------------------------
// FleetFlowGenerator
// ---------------------------------------------------------------------------

struct FleetFlowGenerator::Component {
  HostRole dst_role;
  struct ScopeWeight {
    Scope scope;
    double weight;
  };
  std::vector<ScopeWeight> scopes;
  double bytes_per_sec{0.0};   // per source host, before scaling/diurnal
  std::int64_t avg_payload{600};
  core::Port dst_port{core::ports::kSlb};
  bool pooled{true};           // pooled flows span the epoch; others are short
};

FleetFlowGenerator::FleetFlowGenerator(const topology::Fleet& fleet, FleetGenConfig config)
    : fleet_{&fleet}, config_{config}, index_{fleet}, diurnal_{config.diurnal} {}

std::vector<FleetFlowGenerator::Component> FleetFlowGenerator::components_for(
    HostRole role) const {
  const services::ServiceMix& mix = config_.mix;
  std::vector<Component> out;

  switch (role) {
    case HostRole::kWeb: {
      const services::WebParams& w = mix.web;
      const double cache_bps = w.user_requests_per_sec * w.cache_gets_per_request_mean *
                               static_cast<double>(w.cache_get_request.count_bytes());
      const double mf_bps = w.user_requests_per_sec * w.multifeed_calls_per_request_mean *
                            static_cast<double>(w.multifeed_request.count_bytes());
      const double slb_bps = w.user_requests_per_sec *
                             static_cast<double>(w.slb_response_mean.count_bytes());
      const double fg = cache_bps + mf_bps + slb_bps;
      const double misc_bps = fg * w.misc_bytes_fraction / (1.0 - w.misc_bytes_fraction);
      out.push_back({HostRole::kCacheFollower, {{Scope::kSameCluster, 1.0}}, cache_bps,
                     w.cache_get_request.count_bytes(), core::ports::kMemcache, true});
      out.push_back({HostRole::kMultifeed, {{Scope::kSameCluster, 1.0}}, mf_bps, 1200,
                     core::ports::kMultifeed, true});
      out.push_back({HostRole::kSlb, {{Scope::kSameCluster, 1.0}}, slb_bps, 1100,
                     core::ports::kHttp, true});
      out.push_back({HostRole::kService,
                     {{Scope::kSameDatacenter, 0.55}, {Scope::kOtherDatacenters, 0.45}},
                     misc_bps, w.misc_message.count_bytes(), core::ports::kSlb, true});
      break;
    }
    case HostRole::kCacheFollower: {
      const services::CacheFollowerParams& p = mix.cache_follower;
      const double web_bps =
          p.gets_served_per_sec * lognormal_mean(p.object_median, p.object_sigma);
      const double leader_bps = p.gets_served_per_sec * p.miss_rate *
                                static_cast<double>(p.fill_request.count_bytes());
      const double fg = web_bps + leader_bps;
      const double misc_bps = fg * p.misc_bytes_fraction / (1.0 - p.misc_bytes_fraction);
      out.push_back({HostRole::kWeb, {{Scope::kSameCluster, 1.0}}, web_bps, 320,
                     core::ports::kMemcache, true});
      out.push_back({HostRole::kCacheLeader,
                     {{Scope::kSameDatacenterOtherCluster, 0.8}, {Scope::kOtherDatacenters, 0.2}},
                     leader_bps, p.fill_request.count_bytes(), core::ports::kCacheCoherence,
                     true});
      out.push_back({HostRole::kService,
                     {{Scope::kSameDatacenter, 0.6}, {Scope::kOtherDatacenters, 0.4}}, misc_bps,
                     p.misc_message.count_bytes(), core::ports::kSlb, true});
      break;
    }
    case HostRole::kCacheLeader: {
      const services::CacheLeaderParams& p = mix.cache_leader;
      const double coh_bps = p.coherency_msgs_per_sec *
                             lognormal_mean(p.coherency_msg_median, p.coherency_sigma);
      const double db_bps =
          p.db_ops_per_sec * static_cast<double>(p.db_op_size.count_bytes());
      const double fg = coh_bps + db_bps;
      // Table 3 Cache row scope mix (see CacheLeaderModel::follower_scope).
      out.push_back({HostRole::kCacheLeader, {{Scope::kSameClusterOtherRack, 1.0}},
                     coh_bps * 0.14, 450, core::ports::kCacheCoherence, true});
      out.push_back({HostRole::kCacheFollower,
                     {{Scope::kSameDatacenterOtherCluster, 0.36 / 0.86},
                      {Scope::kOtherDatacenters, 0.50 / 0.86}},
                     coh_bps * 0.86, 450, core::ports::kCacheCoherence, true});
      out.push_back({HostRole::kDatabase,
                     {{Scope::kSameDatacenter, 0.35}, {Scope::kOtherDatacenters, 0.65}}, db_bps,
                     p.db_op_size.count_bytes(), core::ports::kMysql, true});
      out.push_back({HostRole::kMultifeed, {{Scope::kSameDatacenter, 1.0}},
                     fg * p.multifeed_share, p.multifeed_msg.count_bytes(),
                     core::ports::kMultifeed, true});
      out.push_back({HostRole::kService, {{Scope::kSameDatacenter, 1.0}},
                     fg * p.misc_bytes_fraction, p.misc_message.count_bytes(),
                     core::ports::kSlb, true});
      break;
    }
    case HostRole::kHadoop: {
      const services::HadoopParams& p = mix.hadoop;
      const double duty = p.busy_period_mean.to_seconds() /
                          (p.busy_period_mean.to_seconds() + p.quiet_period_mean.to_seconds());
      const double bulk_bps = p.transfers_per_sec_busy * duty *
                              lognormal_mean(p.transfer_median, p.transfer_sigma);
      const double ctrl_bps =
          p.control_msgs_per_sec * static_cast<double>(p.control_msg.count_bytes());
      // Fleet-wide the Hadoop service is far less rack-local than a busy
      // monitored node (Table 3 vs §4.2's anecdote): concurrent jobs spill
      // across racks and other services read its data.
      out.push_back({HostRole::kHadoop,
                     {{Scope::kSameRack, p.fleet_rack_local_fraction},
                      {Scope::kSameClusterOtherRack, 1.0 - p.fleet_rack_local_fraction}},
                     bulk_bps, 1460, core::ports::kMapReduceShuffle, false});
      out.push_back({HostRole::kHadoop, {{Scope::kSameClusterOtherRack, 1.0}}, ctrl_bps,
                     p.control_msg.count_bytes(), core::ports::kHdfs, true});
      out.push_back({HostRole::kService, {{Scope::kSameDatacenter, 1.0}},
                     (bulk_bps + ctrl_bps) * p.misc_bytes_fraction, 400, core::ports::kSlb,
                     true});
      break;
    }
    case HostRole::kMultifeed: {
      const services::MultifeedParams& p = mix.multifeed;
      const double resp_bps = p.requests_served_per_sec *
                              lognormal_mean(p.response_median, p.response_sigma);
      out.push_back({HostRole::kWeb, {{Scope::kSameCluster, 1.0}}, resp_bps, 1200,
                     core::ports::kMultifeed, true});
      out.push_back({HostRole::kService, {{Scope::kSameDatacenter, 1.0}},
                     resp_bps * p.misc_bytes_fraction, 1100, core::ports::kSlb, true});
      break;
    }
    case HostRole::kSlb: {
      const services::SlbParams& p = mix.slb;
      const double req_bps =
          p.user_requests_per_sec * static_cast<double>(p.request_size.count_bytes());
      out.push_back({HostRole::kWeb, {{Scope::kSameCluster, 1.0}}, req_bps,
                     p.request_size.count_bytes(), core::ports::kHttp, true});
      out.push_back({HostRole::kService, {{Scope::kSameDatacenter, 1.0}},
                     req_bps * p.misc_bytes_fraction, 1100, core::ports::kSlb, true});
      break;
    }
    case HostRole::kDatabase: {
      const services::DatabaseParams& p = mix.database;
      const double resp_bps = p.queries_served_per_sec *
                              lognormal_mean(p.response_median, p.response_sigma);
      const double repl_bps =
          resp_bps * p.replication_bytes_fraction / (1.0 - p.replication_bytes_fraction);
      out.push_back({HostRole::kCacheLeader,
                     {{Scope::kSameDatacenter, 0.5}, {Scope::kOtherDatacenters, 0.5}}, resp_bps,
                     1200, core::ports::kMysql, true});
      // Binlog replication, weighted so the emergent DB row approximates
      // Table 3 (0 / 30.7 / 34.5 / 34.8).
      out.push_back({HostRole::kDatabase,
                     {{Scope::kSameClusterOtherRack, 0.41},
                      {Scope::kSameDatacenterOtherCluster, 0.293},
                      {Scope::kOtherDatacenters, 0.297}},
                     repl_bps, p.replication_message.count_bytes(), core::ports::kMysql, true});
      break;
    }
    case HostRole::kService: {
      const services::ServiceParams& p = mix.service;
      const double bps =
          p.messages_per_sec * static_cast<double>(p.message.count_bytes());
      out.push_back({HostRole::kService,
                     {{Scope::kSameRack, p.rack_weight},
                      {Scope::kSameClusterOtherRack, p.cluster_weight},
                      {Scope::kSameDatacenterOtherCluster, p.dc_weight},
                      {Scope::kOtherDatacenters, p.interdc_weight}},
                     bps, p.message.count_bytes(), core::ports::kSlb, true});
      break;
    }
  }
  return out;
}

void FleetFlowGenerator::emit_component(HostId src, const Component& comp,
                                        std::int64_t epoch_index, core::RngStream& rng,
                                        const Visit& visit) const {
  const double epoch_sec = config_.epoch.to_seconds();
  const TimePoint epoch_start =
      TimePoint::zero() + config_.epoch * epoch_index;
  const double diurnal =
      diurnal_.factor_at(epoch_start.since_epoch() + config_.epoch / 2);
  const double total_bytes = comp.bytes_per_sec * epoch_sec * diurnal * config_.rate_scale;
  if (total_bytes < 1.0) return;

  const int n = std::max(1, config_.flows_per_component);
  // Random flow weights: exponential draws normalized (flat Dirichlet), so
  // flow sizes vary while byte totals are exact.
  std::vector<double> weights(static_cast<std::size_t>(n));
  double wsum = 0.0;
  for (double& w : weights) {
    w = rng.exponential(1.0);
    wsum += w;
  }

  core::Port src_port = static_cast<core::Port>(
      core::ports::kEphemeralBase + (epoch_index * 131) % 16384);
  for (int i = 0; i < n; ++i) {
    // Scope by weight.
    double u = rng.uniform();
    Scope scope = comp.scopes.back().scope;
    for (const auto& sw : comp.scopes) {
      if (u < sw.weight) {
        scope = sw.scope;
        break;
      }
      u -= sw.weight;
    }
    const HostId dst = index_.pick(src, comp.dst_role, scope, rng);
    if (!dst.is_valid()) continue;

    const auto bytes = static_cast<std::int64_t>(
        total_bytes * weights[static_cast<std::size_t>(i)] / wsum);
    if (bytes <= 0) continue;

    core::FlowRecord flow;
    flow.tuple = core::FiveTuple{fleet_->host(src).addr, fleet_->host(dst).addr, src_port++,
                                 comp.dst_port, core::Protocol::kTcp};
    flow.src_host = src;
    flow.dst_host = dst;
    if (comp.pooled) {
      flow.start = epoch_start;
      flow.duration = config_.epoch;
    } else {
      const double frac = rng.uniform();
      flow.start = epoch_start + Duration::from_seconds(frac * epoch_sec * 0.9);
      flow.duration = Duration::from_seconds(
          std::min(epoch_sec * 0.1, 0.5 + rng.exponential(5.0)));
    }
    flow.bytes = DataSize::bytes(bytes);
    flow.packets = std::max<std::int64_t>(1, bytes / comp.avg_payload);
    visit(flow);
  }
}

void FleetFlowGenerator::generate_for_host(HostId host, const Visit& visit) const {
  const core::HostRole role = fleet_->host(host).role;
  const core::RngStream root{config_.seed};
  core::RngStream rng = root.fork("fleet-host", host.value());
  const auto comps = components_for(role);
  const std::int64_t epochs = config_.horizon / config_.epoch;

  // Host crash/restart gating. Every random draw still happens for skipped
  // flows, so a fault plan never perturbs the draws of surviving flows —
  // and a disabled plan forwards to `visit` unconditionally, reproducing
  // the fault-free stream bit for bit.
  const faults::FaultPlan* plan = config_.faults;
  const bool faulted = plan != nullptr && plan->enabled();
  std::int64_t down_skipped = 0;
  const Visit gated = [&](const core::FlowRecord& f) {
    if (faulted &&
        (plan->host_down(f.src_host, f.start) || plan->host_down(f.dst_host, f.start))) {
      ++down_skipped;
      return;
    }
    visit(f);
  };
  const Visit& sink = faulted ? gated : visit;

#if FBDCSIM_TELEMETRY_ENABLED
  // Count this host's flows locally and fold them into the fleet-wide
  // per-role counters once, so the per-flow path stays allocation- and
  // contention-free.
  std::int64_t emitted = 0;
  const Visit counted = [&](const core::FlowRecord& f) {
    ++emitted;
    sink(f);
  };
  for (std::int64_t e = 0; e < epochs; ++e) {
    for (const Component& c : comps) emit_component(host, c, e, rng, counted);
  }
  FBDCSIM_T_COUNTER(total, "fleet.flows", Sim);
  FBDCSIM_T_ADD(total, emitted - down_skipped);
  role_flow_counter(role).add(emitted - down_skipped);
  if (down_skipped > 0) {
    FBDCSIM_T_COUNTER(skipped, "fleet.host_down_skipped", Sim);
    FBDCSIM_T_ADD(skipped, down_skipped);
  }
#else
  for (std::int64_t e = 0; e < epochs; ++e) {
    for (const Component& c : comps) emit_component(host, c, e, rng, sink);
  }
#endif
}

void FleetFlowGenerator::generate(const Visit& visit) const {
  for (const topology::Host& h : fleet_->hosts()) {
    generate_for_host(h.id, visit);
  }
}

}  // namespace fbdcsim::workload
