#include "fbdcsim/services/backend.h"

#include "fbdcsim/services/cache.h"
#include "fbdcsim/services/hadoop.h"
#include "fbdcsim/services/web.h"

namespace fbdcsim::services {

namespace {
using core::DataSize;
using core::Duration;
using core::HostRole;
using core::TimePoint;
}  // namespace

// ---------------------------------------------------------------------------
// Multifeed
// ---------------------------------------------------------------------------

MultifeedModel::MultifeedModel(const topology::Fleet& fleet, core::HostId self,
                               const ServiceMix& mix, core::RngStream rng)
    : TrafficModel{fleet, self, mix, rng},
      response_size_{static_cast<double>(mix.multifeed.response_median.count_bytes()),
                     mix.multifeed.response_sigma} {}

void MultifeedModel::schedule_first() {
  arrivals([this] { return mix_->multifeed.requests_served_per_sec; },
           [this] {
             const auto web = pick_balanced(HostRole::kWeb, Scope::kSameCluster);
             if (!web) return;
             Connection& conn = conns_.pooled(Dir::kIn, *web, core::ports::kMultifeed);
             const TimePoint got =
                 wire_.send(Dir::kIn, conn, mix_->web.multifeed_request, sim_->now());
             wire_.send(Dir::kOut, conn, floored_size(response_size_, 64),
                        got + Duration::micros(250));
           });
}

// ---------------------------------------------------------------------------
// SLB
// ---------------------------------------------------------------------------

SlbModel::SlbModel(const topology::Fleet& fleet, core::HostId self, const ServiceMix& mix,
                   core::RngStream rng)
    : TrafficModel{fleet, self, mix, rng},
      page_size_{static_cast<double>(mix.web.slb_response_mean.count_bytes()),
                 mix.web.slb_response_sigma} {}

void SlbModel::schedule_first() {
  // Forward a user request to a Web server; the page comes back after the
  // Web tier's fan-out completes (a few ms).
  arrivals([this] { return mix_->slb.user_requests_per_sec; },
           [this] {
             const auto web = pick_balanced(HostRole::kWeb, Scope::kSameCluster);
             if (!web) return;
             Connection& conn = conns_.pooled(Dir::kOut, *web, core::ports::kHttp);
             const TimePoint sent =
                 wire_.send(Dir::kOut, conn, mix_->slb.request_size, sim_->now());
             const DataSize page = floored_size(page_size_, 256);
             const Duration wait =
                 Duration::micros(static_cast<std::int64_t>(rng_.exponential(1500.0)));
             wire_.send(Dir::kIn, conn, page, sent + Duration::millis(2) + wait);
           });
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

DatabaseModel::DatabaseModel(const topology::Fleet& fleet, core::HostId self,
                             const ServiceMix& mix, core::RngStream rng)
    : TrafficModel{fleet, self, mix, rng},
      response_size_{static_cast<double>(mix.database.response_median.count_bytes()),
                     mix.database.response_sigma} {
  // Replica set: fixed small group spanning cluster, datacenter, and a
  // remote site (standard MySQL replication topology).
  core::RngStream setup = rng_.fork("replicas");
  replica_peers_ = peers_.pick_set(HostRole::kDatabase,
                                   {{Scope::kSameClusterOtherRack, 2},
                                    {Scope::kSameDatacenterOtherCluster, 2},
                                    {Scope::kOtherDatacenters, 2}},
                                   setup);
}

void DatabaseModel::schedule_first() {
  // Queries come from cache leaders in this DC and beyond.
  arrivals([this] { return mix_->database.queries_served_per_sec; },
           [this] {
             const Scope scope =
                 rng_.bernoulli(0.6) ? Scope::kSameDatacenter : Scope::kOtherDatacenters;
             const auto leader = peers_.pick(HostRole::kCacheLeader, scope, rng_);
             if (!leader) return;
             Connection& conn = conns_.pooled(Dir::kIn, *leader, core::ports::kMysql);
             const TimePoint got =
                 wire_.send(Dir::kIn, conn, mix_->cache_leader.db_op_size, sim_->now());
             wire_.send(Dir::kOut, conn, floored_size(response_size_, 128),
                        got + Duration::micros(500));
           });
  // Replication, at the rate that makes it the configured fraction of
  // outbound bytes. Table 3 DB row: bytes split roughly evenly between
  // cluster, DC, and inter-DC destinations (binlog shipping to intermediate
  // and remote replicas).
  arrivals(
      [this] {
        const DatabaseParams& p = mix_->database;
        const double resp_bytes = p.queries_served_per_sec *
                                  static_cast<double>(p.response_median.count_bytes()) * 1.8;
        const double repl_bytes =
            resp_bytes * p.replication_bytes_fraction / (1.0 - p.replication_bytes_fraction);
        return repl_bytes / static_cast<double>(p.replication_message.count_bytes());
      },
      [this] {
        send_to_group(replica_peers_, core::ports::kMysql, mix_->database.replication_message);
      });
}

// ---------------------------------------------------------------------------
// Service hosts
// ---------------------------------------------------------------------------

ServiceHostModel::ServiceHostModel(const topology::Fleet& fleet, core::HostId self,
                                   const ServiceMix& mix, core::RngStream rng)
    : TrafficModel{fleet, self, mix, rng} {}

void ServiceHostModel::schedule_first() {
  arrivals([this] { return mix_->service.messages_per_sec; }, [this] { send_message(); });
}

void ServiceHostModel::send_message() {
  // Service clusters exhibit a mixed pattern between the extremes (§4.3,
  // Table 3 Svc row): some rack locality, cluster-dominated, with real DC
  // and inter-DC components.
  const services::ServiceParams& p = mix_->service;
  const double u = rng_.uniform();
  Scope scope = Scope::kOtherDatacenters;
  if (u < p.rack_weight) {
    scope = Scope::kSameRack;
  } else if (u < p.rack_weight + p.cluster_weight) {
    scope = Scope::kSameClusterOtherRack;
  } else if (u < p.rack_weight + p.cluster_weight + p.dc_weight) {
    scope = Scope::kSameDatacenterOtherCluster;
  }
  const auto peer = peers_.pick(HostRole::kService, scope, rng_);
  if (!peer) return;
  Connection& conn = conns_.pooled(Dir::kOut, *peer, core::ports::kSlb);
  const TimePoint sent = wire_.send(Dir::kOut, conn, p.message, sim_->now());
  wire_.send(Dir::kIn, conn, DataSize::bytes(300), sent + Duration::micros(400));
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<TrafficModel> make_model(const topology::Fleet& fleet, core::HostId host,
                                         const ServiceMix& mix, core::RngStream rng) {
  switch (fleet.host(host).role) {
    case HostRole::kWeb:
      return std::make_unique<WebServerModel>(fleet, host, mix, rng);
    case HostRole::kCacheFollower:
      return std::make_unique<CacheFollowerModel>(fleet, host, mix, rng);
    case HostRole::kCacheLeader:
      return std::make_unique<CacheLeaderModel>(fleet, host, mix, rng);
    case HostRole::kHadoop:
      return std::make_unique<HadoopModel>(fleet, host, mix, rng);
    case HostRole::kMultifeed:
      return std::make_unique<MultifeedModel>(fleet, host, mix, rng);
    case HostRole::kSlb:
      return std::make_unique<SlbModel>(fleet, host, mix, rng);
    case HostRole::kDatabase:
      return std::make_unique<DatabaseModel>(fleet, host, mix, rng);
    case HostRole::kService:
      return std::make_unique<ServiceHostModel>(fleet, host, mix, rng);
  }
  return nullptr;
}

}  // namespace fbdcsim::services
