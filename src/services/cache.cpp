#include "fbdcsim/services/cache.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <unordered_map>

namespace fbdcsim::services {

namespace {
using core::DataSize;
using core::Duration;
using core::HostRole;
using core::TimePoint;
}  // namespace

// ---------------------------------------------------------------------------
// Cache follower
// ---------------------------------------------------------------------------

CacheFollowerModel::CacheFollowerModel(const topology::Fleet& fleet, core::HostId self,
                                       const ServiceMix& mix, core::RngStream rng)
    : TrafficModel{fleet, self, mix, rng},
      object_size_{static_cast<double>(mix.cache_follower.object_median.count_bytes()),
                   mix.cache_follower.object_sigma} {
  // Shard map: this follower's objects belong to a handful of shards, each
  // owned by a specific leader; fills concentrate there (and that is why
  // Figure 9's per-host flow sizes stay tight — only the Web-facing
  // response traffic is spread wide).
  core::RngStream setup = rng_.fork("peer-sets");
  leader_peers_ = peers_.pick_set(
      HostRole::kCacheLeader,
      {{Scope::kSameDatacenterOtherCluster, 12}, {Scope::kOtherDatacenters, 4}}, setup);
  misc_peers_ = peers_.pick_set(
      HostRole::kService, {{Scope::kSameDatacenter, 5}, {Scope::kOtherDatacenters, 3}}, setup);
}

void CacheFollowerModel::schedule_first() {
  arrivals(
      [this] { return mix_->cache_follower.gets_served_per_sec * surge_multiplier_; },
      [this] { serve_get(); });
  // Surge inter-arrival: a handful per minute per follower; the top-50 hot
  // list churns on the order of minutes (§5.2).
  arrivals([] { return 3.0 / 60.0; }, [this] { start_surge(); });
  // Short-lived administrative / one-shot connections: stats pulls, health
  // checks, shard moves. Small exchanges on fresh connections.
  arrivals([this] { return mix_->cache_follower.ephemeral_per_sec; },
           [this] {
             const auto peer = peers_.pick(HostRole::kWeb, Scope::kSameCluster, rng_);
             if (!peer) return;
             Connection conn = conns_.ephemeral(Dir::kOut, *peer, core::ports::kMemcache);
             const TimePoint opened = wire_.open(Dir::kOut, conn, sim_->now());
             const TimePoint sent = wire_.send(Dir::kOut, conn, DataSize::bytes(400), opened);
             const TimePoint answered =
                 wire_.send(Dir::kIn, conn, DataSize::bytes(600), sent + Duration::micros(150));
             wire_.close(conn, answered + Duration::micros(30));
           });
  // Background traffic ("Rest", 5.5% of Table 2's cache-f row): logging and
  // service chatter to Service hosts in this and other datacenters.
  arrivals(
      [this] {
        const CacheFollowerParams& p = mix_->cache_follower;
        const double fg_bytes = p.gets_served_per_sec *
                                static_cast<double>(p.object_median.count_bytes()) * 1.8;
        const double misc_bytes =
            fg_bytes * p.misc_bytes_fraction / (1.0 - p.misc_bytes_fraction);
        return misc_bytes / static_cast<double>(p.misc_message.count_bytes());
      },
      [this] {
        send_to_group(misc_peers_, core::ports::kSlb, mix_->cache_follower.misc_message);
      });
}

void CacheFollowerModel::refresh_rack_weights() {
  // Group the cluster's Web hosts by rack once.
  if (web_hosts_by_rack_.empty()) {
    std::unordered_map<std::uint32_t, std::size_t> rack_index;
    for (const core::HostId h : peers_.candidates(HostRole::kWeb, Scope::kSameCluster)) {
      const auto rack = fleet().host(h).rack.value();
      auto [it, inserted] = rack_index.try_emplace(rack, web_hosts_by_rack_.size());
      if (inserted) web_hosts_by_rack_.emplace_back();
      web_hosts_by_rack_[it->second].push_back(h);
    }
  }
  // Per-second Gamma(k)/sum weights: mean 1, sd ~1/sqrt(k).
  std::gamma_distribution<double> gamma{18.0, 1.0};
  rack_weight_cdf_.clear();
  double acc = 0.0;
  for (std::size_t i = 0; i < web_hosts_by_rack_.size(); ++i) {
    acc += gamma(rng_.engine()) * static_cast<double>(web_hosts_by_rack_[i].size());
    rack_weight_cdf_.push_back(acc);
  }
}

std::optional<core::HostId> CacheFollowerModel::pick_requester() {
  if (!mix_->load_balancing_enabled) {
    return peers_.pick_skewed(HostRole::kWeb, Scope::kSameCluster, rng_);
  }
  const std::int64_t epoch = sim_->now().count_nanos() / 1'000'000'000LL;
  if (epoch != weight_epoch_) {
    refresh_rack_weights();
    weight_epoch_ = epoch;
  }
  if (rack_weight_cdf_.empty()) return std::nullopt;
  const double u = rng_.uniform() * rack_weight_cdf_.back();
  const auto it = std::lower_bound(rack_weight_cdf_.begin(), rack_weight_cdf_.end(), u);
  const auto& hosts =
      web_hosts_by_rack_[static_cast<std::size_t>(
          std::distance(rack_weight_cdf_.begin(), it))];
  return pick_from(hosts);
}

void CacheFollowerModel::serve_get() {
  const CacheFollowerParams& p = mix_->cache_follower;
  const TimePoint now = sim_->now();

  // The requesting Web server: user-request load balancing spreads demand
  // over the whole Web tier (Figures 8b, 9, 16b), with per-second per-rack
  // wobble from user sessions; the LB-off ablation concentrates it.
  const auto web = pick_requester();
  if (!web) return;

  Connection& conn = conns_.pooled(Dir::kIn, *web, core::ports::kMemcache);
  // The response piggybacks the ACK of the request (no standalone ACK).
  const TimePoint got = wire_.send(Dir::kIn, conn, mix_->web.cache_get_request, now,
                                   Duration::micros(2), /*ack=*/false);

  const Duration service = Duration::micros(static_cast<std::int64_t>(40 + rng_.exponential(60.0)));
  const DataSize object = floored_size(object_size_, 32);

  if (rng_.bernoulli(p.miss_rate) && !leader_peers_.empty()) {
    // Miss: fill from the shard's leader before answering.
    const core::HostId leader = pick_from(leader_peers_);
    const bool remote =
        fleet().host(leader).datacenter != fleet().host(self()).datacenter;
    Connection& fill = conns_.pooled(Dir::kOut, leader, core::ports::kCacheCoherence);
    const TimePoint asked = wire_.send(Dir::kOut, fill, p.fill_request, got + service);
    const Duration fill_rtt = remote ? Duration::millis(35) : Duration::micros(400);
    const TimePoint filled = wire_.send(Dir::kIn, fill, object, asked + fill_rtt);
    // Looking `fill` up may have grown the table and moved `conn`.
    wire_.send(Dir::kOut, conns_.pooled(Dir::kIn, *web, core::ports::kMemcache), object,
               filled + Duration::micros(20));
    return;
  }
  wire_.send(Dir::kOut, conn, object, got + service);
}

void CacheFollowerModel::start_surge() {
  const HotObjectParams& hp = mix_->hot_objects;
  ++surges_started_;
  // A hot object adds demand. With mitigation the cache tells Web servers
  // to cache the object within a short reaction time and the surge
  // collapses; without it the surge runs its full course, and is larger
  // (no replication spreads the shard).
  const double magnitude =
      hp.mitigation_enabled ? rng_.uniform(0.05, 0.25) : rng_.uniform(0.5, 3.0);
  const Duration lifetime =
      hp.mitigation_enabled
          ? Duration::from_seconds(0.2 + rng_.exponential(0.8))
          : Duration::from_seconds(rng_.exponential(hp.hot_lifetime.to_seconds()));
  surge_multiplier_ += magnitude;
  if (hp.mitigation_enabled) ++surges_mitigated_;
  sim_->schedule_after(lifetime, [this, magnitude] { surge_multiplier_ -= magnitude; });
}

// ---------------------------------------------------------------------------
// Cache leader
// ---------------------------------------------------------------------------

CacheLeaderModel::CacheLeaderModel(const topology::Fleet& fleet, core::HostId self,
                                   const ServiceMix& mix, core::RngStream rng)
    : TrafficModel{fleet, self, mix, rng},
      coherency_size_{static_cast<double>(mix.cache_leader.coherency_msg_median.count_bytes()),
                      mix.cache_leader.coherency_sigma},
      object_size_{static_cast<double>(mix.cache_follower.object_median.count_bytes()),
                   mix.cache_follower.object_sigma} {
  core::RngStream setup = rng_.fork("peer-sets");
  db_peers_ = peers_.pick_set(HostRole::kDatabase,
                              {{Scope::kSameDatacenter, 6}, {Scope::kOtherDatacenters, 10}},
                              setup);
  mf_peers_ = peers_.pick_set(HostRole::kMultifeed, {{Scope::kSameDatacenter, 6}}, setup);
  misc_peers_ = peers_.pick_set(HostRole::kService, {{Scope::kSameDatacenter, 6}}, setup);

  // Multifeed invalidations plus background services, as shares of the
  // coherency and database bytes.
  const CacheLeaderParams& p = mix.cache_leader;
  const double fg_bytes =
      p.coherency_msgs_per_sec * static_cast<double>(p.coherency_msg_median.count_bytes()) +
      p.db_ops_per_sec * static_cast<double>(p.db_op_size.count_bytes());
  mf_rate_ = fg_bytes * p.multifeed_share / static_cast<double>(p.multifeed_msg.count_bytes());
  misc_rate_ =
      fg_bytes * p.misc_bytes_fraction / static_cast<double>(p.misc_message.count_bytes());
}

void CacheLeaderModel::schedule_first() {
  arrivals([this] { return mix_->cache_leader.coherency_msgs_per_sec; },
           [this] { send_coherency(); });
  // Databases are reached in this DC and across the backbone ("single
  // geographically distributed instance", §4.2).
  arrivals([this] { return mix_->cache_leader.db_ops_per_sec; },
           [this] {
             if (db_peers_.empty()) return;
             const core::HostId db = pick_from(db_peers_);
             const bool remote = fleet().host(db).datacenter != fleet().host(self()).datacenter;
             Connection& conn = conns_.pooled(Dir::kOut, db, core::ports::kMysql);
             const TimePoint sent =
                 wire_.send(Dir::kOut, conn, mix_->cache_leader.db_op_size, sim_->now());
             const Duration rtt = remote ? Duration::millis(35) : Duration::micros(600);
             wire_.send(Dir::kIn, conn, DataSize::bytes(900), sent + rtt);
           });
  // Fill requests from followers in this datacenter (inbound), answered
  // with objects. Rate scales with follower miss traffic.
  arrivals(
      [this] {
        return mix_->cache_follower.gets_served_per_sec * mix_->cache_follower.miss_rate * 0.25;
      },
      [this] {
        const auto follower =
            peers_.pick(HostRole::kCacheFollower, Scope::kSameDatacenterOtherCluster, rng_);
        if (!follower) return;
        Connection& conn =
            conns_.pooled(Dir::kIn, *follower, core::ports::kCacheCoherence);
        const TimePoint got =
            wire_.send(Dir::kIn, conn, mix_->cache_follower.fill_request, sim_->now());
        wire_.send(Dir::kOut, conn, floored_size(object_size_, 32),
                   got + Duration::micros(120));
      });
  arrivals([this] { return mix_->cache_leader.ephemeral_per_sec; },
           [this] {
             const auto peer = peers_.pick(HostRole::kCacheFollower, follower_scope(), rng_);
             if (!peer) return;
             Connection conn =
                 conns_.ephemeral(Dir::kOut, *peer, core::ports::kCacheCoherence);
             const TimePoint opened = wire_.open(Dir::kOut, conn, sim_->now());
             const TimePoint sent = wire_.send(Dir::kOut, conn, DataSize::bytes(500), opened);
             wire_.close(conn, sent + Duration::micros(100));
           });
  arrivals([this] { return mf_rate_ + misc_rate_; },
           [this] {
             const CacheLeaderParams& p = mix_->cache_leader;
             if (rng_.bernoulli(mf_rate_ / (mf_rate_ + misc_rate_))) {
               send_to_group(mf_peers_, core::ports::kMultifeed, p.multifeed_msg);
             } else {
               send_to_group(misc_peers_, core::ports::kSlb, p.misc_message);
             }
           });
}

Scope CacheLeaderModel::follower_scope() {
  // Table 3 Cache row: ~0.2% rack, 13% cluster, 41% DC, 46% inter-DC.
  // Leader->follower messages dominate leader traffic, so their scope mix
  // approximates the row directly; DB and fill components shift it a little
  // and the benches verify the emergent result.
  const double u = rng_.uniform();
  if (u < 0.15) return Scope::kSameCluster;            // other leaders / local shards
  if (u < 0.50) return Scope::kSameDatacenterOtherCluster;
  return Scope::kOtherDatacenters;
}

void CacheLeaderModel::send_coherency() {
  const Scope scope = follower_scope();
  // Coherency partners: followers in Frontend clusters and leaders in other
  // Cache clusters. Demand is mildly skewed toward the shards that are
  // currently hot, and the hot set churns every ~500 ms — this is what
  // makes leader heavy hitters few and short-lived (Table 4, Figures
  // 10b/17c).
  const HostRole role =
      scope == Scope::kSameCluster ? HostRole::kCacheLeader : HostRole::kCacheFollower;
  const auto rotation = static_cast<std::uint64_t>(sim_->now().count_nanos() / 250'000'000LL);
  const auto peer = peers_.pick_skewed(role, scope, rng_, 1.05, rotation);
  if (!peer) return;
  Connection& conn = conns_.pooled(Dir::kOut, *peer, core::ports::kCacheCoherence);
  // Invalidations are pipelined fire-and-forget; the TCP-level delayed ACK
  // synthesized by Wire::send is the only reverse traffic.
  wire_.send(Dir::kOut, conn, floored_size(coherency_size_, 64), sim_->now());
}

}  // namespace fbdcsim::services
