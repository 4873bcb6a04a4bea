#include "fbdcsim/services/backend.h"

#include <algorithm>

#include "fbdcsim/services/cache.h"
#include "fbdcsim/services/hadoop.h"
#include "fbdcsim/services/web.h"

namespace fbdcsim::services {

namespace {
using core::DataSize;
using core::Duration;
using core::HostRole;
using core::TimePoint;

DataSize lognormal_size(core::LogNormal& dist, core::RngStream& rng, std::int64_t floor_bytes) {
  return DataSize::bytes(
      std::max(floor_bytes, static_cast<std::int64_t>(dist.sample(rng))));
}
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
  schedule_next_request();
}

void MultifeedModel::schedule_next_request() {
  const double rate = mix_->multifeed.requests_served_per_sec;
  sim_->schedule_after(Duration::from_seconds(rng_.exponential(1.0 / rate)), [this] {
    const auto web = pick_balanced(HostRole::kWeb, Scope::kSameCluster);
    if (web) {
      const Connection conn = conns_.pooled(Dir::kIn, *web, core::ports::kMultifeed);
      const TimePoint got =
          wire_.send(Dir::kIn, conn, mix_->web.multifeed_request, sim_->now());
      const DataSize resp = lognormal_size(response_size_, rng_, 64);
      wire_.send(Dir::kOut, conn, resp, got + Duration::micros(250));
    }
    schedule_next_request();
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
  schedule_next_request();
}

void SlbModel::schedule_next_request() {
  const double rate = mix_->slb.user_requests_per_sec;
  sim_->schedule_after(Duration::from_seconds(rng_.exponential(1.0 / rate)), [this] {
    // Forward a user request to a Web server; the page comes back after
    // the Web tier's fan-out completes (a few ms).
    const auto web = pick_balanced(HostRole::kWeb, Scope::kSameCluster);
    if (web) {
      const Connection conn = conns_.pooled(Dir::kOut, *web, core::ports::kHttp);
      const TimePoint sent = wire_.send(Dir::kOut, conn, mix_->slb.request_size, sim_->now());
      const DataSize page = lognormal_size(page_size_, rng_, 256);
      wire_.send(Dir::kIn, conn, page,
                 sent + Duration::millis(2) +
                     Duration::micros(static_cast<std::int64_t>(rng_.exponential(1500.0))));
    }
    schedule_next_request();
  });
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

DatabaseModel::DatabaseModel(const topology::Fleet& fleet, core::HostId self,
                             const ServiceMix& mix, core::RngStream rng)
    : TrafficModel{fleet, self, mix, rng},
      response_size_{static_cast<double>(mix.database.response_median.count_bytes()),
                     mix.database.response_sigma} {}

void DatabaseModel::schedule_first() {
  schedule_next_query();
  schedule_next_replication();
}

void DatabaseModel::schedule_next_query() {
  const double rate = mix_->database.queries_served_per_sec;
  sim_->schedule_after(Duration::from_seconds(rng_.exponential(1.0 / rate)), [this] {
    // Queries come from cache leaders in this DC and beyond.
    const Scope scope = rng_.bernoulli(0.6) ? Scope::kSameDatacenter : Scope::kOtherDatacenters;
    const auto leader = peers_.pick(HostRole::kCacheLeader, scope, rng_);
    if (leader) {
      const Connection conn = conns_.pooled(Dir::kIn, *leader, core::ports::kMysql);
      const TimePoint got =
          wire_.send(Dir::kIn, conn, mix_->cache_leader.db_op_size, sim_->now());
      const DataSize resp = lognormal_size(response_size_, rng_, 128);
      wire_.send(Dir::kOut, conn, resp, got + Duration::micros(500));
    }
    schedule_next_query();
  });
}

void DatabaseModel::schedule_next_replication() {
  // Replica set: fixed small group spanning cluster, datacenter, and a
  // remote site (standard MySQL replication topology).
  if (replica_peers_.empty()) {
    core::RngStream setup = rng_.fork("replicas");
    for (const auto& [scope, count] :
         {std::pair{Scope::kSameClusterOtherRack, std::size_t{2}},
          std::pair{Scope::kSameDatacenterOtherCluster, std::size_t{2}},
          std::pair{Scope::kOtherDatacenters, std::size_t{2}}}) {
      const auto picked = peers_.pick_set(HostRole::kDatabase, scope, count, setup);
      replica_peers_.insert(replica_peers_.end(), picked.begin(), picked.end());
    }
  }
  const DatabaseParams& p = mix_->database;
  // Replication rate chosen so replication is the configured fraction of
  // outbound bytes.
  const double resp_bytes =
      p.queries_served_per_sec * static_cast<double>(p.response_median.count_bytes()) * 1.8;
  const double repl_bytes =
      resp_bytes * p.replication_bytes_fraction / (1.0 - p.replication_bytes_fraction);
  const double rate = repl_bytes / static_cast<double>(p.replication_message.count_bytes());
  if (rate <= 0.0) return;
  sim_->schedule_after(Duration::from_seconds(rng_.exponential(1.0 / rate)), [this] {
    // Table 3 DB row: bytes split roughly evenly between cluster, DC, and
    // inter-DC destinations (binlog shipping to intermediate and remote
    // replicas).
    if (!replica_peers_.empty()) {
      const core::HostId peer = pick_from(replica_peers_);
      const Connection conn = conns_.pooled(Dir::kOut, peer, core::ports::kMysql);
      wire_.send(Dir::kOut, conn, mix_->database.replication_message, sim_->now());
    }
    schedule_next_replication();
  });
}

// ---------------------------------------------------------------------------
// Service hosts
// ---------------------------------------------------------------------------

ServiceHostModel::ServiceHostModel(const topology::Fleet& fleet, core::HostId self,
                                   const ServiceMix& mix, core::RngStream rng)
    : TrafficModel{fleet, self, mix, rng} {}

void ServiceHostModel::schedule_first() {
  schedule_next_message();
}

void ServiceHostModel::schedule_next_message() {
  const services::ServiceParams& p = mix_->service;
  sim_->schedule_after(Duration::from_seconds(rng_.exponential(1.0 / p.messages_per_sec)),
                       [this] {
    // Service clusters exhibit a mixed pattern between the extremes
    // (§4.3, Table 3 Svc row): some rack locality, cluster-dominated,
    // with real DC and inter-DC components.
    const services::ServiceParams& p2 = mix_->service;
    const double u = rng_.uniform();
    Scope scope = Scope::kOtherDatacenters;
    if (u < p2.rack_weight) {
      scope = Scope::kSameRack;
    } else if (u < p2.rack_weight + p2.cluster_weight) {
      scope = Scope::kSameClusterOtherRack;
    } else if (u < p2.rack_weight + p2.cluster_weight + p2.dc_weight) {
      scope = Scope::kSameDatacenterOtherCluster;
    }
    const auto peer = peers_.pick(HostRole::kService, scope, rng_);
    if (peer) {
      const Connection conn = conns_.pooled(Dir::kOut, *peer, core::ports::kSlb);
      const TimePoint sent = wire_.send(Dir::kOut, conn, p2.message, sim_->now());
      wire_.send(Dir::kIn, conn, DataSize::bytes(300), sent + Duration::micros(400));
    }
    schedule_next_message();
  });
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
