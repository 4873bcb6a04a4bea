#include "fbdcsim/services/web.h"

#include <algorithm>
#include <cmath>

namespace fbdcsim::services {

namespace {
using core::DataSize;
using core::Duration;
using core::HostRole;
using core::TimePoint;
}  // namespace

WebServerModel::WebServerModel(const topology::Fleet& fleet, core::HostId self,
                               const ServiceMix& mix, core::RngStream rng)
    : TrafficModel{fleet, self, mix, rng},
      slb_response_{static_cast<double>(mix.web.slb_response_mean.count_bytes()),
                    mix.web.slb_response_sigma},
      hot_response_{static_cast<double>(mix.hot_objects.hot_object_median.count_bytes()),
                    mix.hot_objects.hot_object_sigma},
      cold_response_{static_cast<double>(mix.hot_objects.cold_object_median.count_bytes()),
                     mix.hot_objects.cold_object_sigma},
      cache_response_{static_cast<double>(mix.cache_follower.object_median.count_bytes()),
                      mix.cache_follower.object_sigma} {
  // Calibrate the misc (background) byte rate so that it is the configured
  // fraction of total outbound bytes, given the per-request byte budget.
  const WebParams& w = mix.web;
  const double per_request_bytes =
      w.cache_gets_per_request_mean * static_cast<double>(w.cache_get_request.count_bytes()) +
      w.multifeed_calls_per_request_mean *
          static_cast<double>(w.multifeed_request.count_bytes()) +
      static_cast<double>(w.slb_response_mean.count_bytes());
  const double foreground_rate = w.user_requests_per_sec * per_request_bytes;
  misc_bytes_per_sec_ =
      foreground_rate * w.misc_bytes_fraction / (1.0 - w.misc_bytes_fraction);

  // Background endpoints (log sinks, config services) are a small fixed
  // group, not the whole fleet.
  core::RngStream setup = rng_.fork("peer-sets");
  misc_peers_ = peers_.pick_set(
      HostRole::kService, {{Scope::kSameDatacenter, 5}, {Scope::kOtherDatacenters, 4}}, setup);

  object_popularity_ = std::make_unique<core::Zipf>(mix.hot_objects.num_objects,
                                                    mix.hot_objects.zipf_exponent);
}

void WebServerModel::schedule_first() {
  arrivals([this] { return mix_->web.user_requests_per_sec; },
           [this] { serve_user_request(); });
  // Background traffic (logging, config, static-asset replication) to the
  // fixed endpoint group, which spans this and other datacenters.
  arrivals(
      [this] {
        return misc_bytes_per_sec_ / static_cast<double>(mix_->web.misc_message.count_bytes());
      },
      [this] { send_to_group(misc_peers_, core::ports::kSlb, mix_->web.misc_message); });
  // Ephemeral one-shot exchanges (health checks, config fetches, one-off
  // RPCs): their rate sets the SYN interarrival of Figure 14 (~2 ms median
  // for Web servers).
  arrivals([this] { return mix_->web.ephemeral_per_sec; },
           [this] {
             const auto peer = peers_.pick(HostRole::kCacheFollower, Scope::kSameCluster, rng_);
             if (!peer) return;
             Connection conn = conns_.ephemeral(Dir::kOut, *peer, core::ports::kMemcache);
             const TimePoint opened = wire_.open(Dir::kOut, conn, sim_->now());
             const TimePoint sent =
                 wire_.send(Dir::kOut, conn, mix_->web.cache_get_request, opened);
             const DataSize response = floored_size(cache_response_, 32);
             const TimePoint done =
                 wire_.send(Dir::kIn, conn, response, sent + Duration::micros(150));
             wire_.close(conn, done + Duration::micros(20));
           });
}

void WebServerModel::serve_user_request() {
  const WebParams& w = mix_->web;
  const TimePoint now = sim_->now();

  // 1. The user request arrives from an SLB over a pooled connection.
  const auto slb = pick_balanced(HostRole::kSlb, Scope::kSameCluster);
  TimePoint ready = now;
  if (slb) {
    Connection& in = conns_.pooled(Dir::kIn, *slb, core::ports::kHttp);
    // The page response piggybacks the ACK of the user request.
    ready = wire_.send(Dir::kIn, in, mix_->slb.request_size, now, Duration::micros(2),
                       /*ack=*/false);
  }

  // 2. After think time, a burst of cache gets spread over the cluster's
  //    followers. Burst size is geometric around the configured mean, so
  //    page weights vary (some pages touch few objects, some very many).
  const double p = 1.0 / w.cache_gets_per_request_mean;
  const auto gets = static_cast<int>(
      std::clamp(std::ceil(std::log(1.0 - rng_.uniform()) / std::log(1.0 - p)), 1.0, 400.0));
  TimePoint at = ready + w.think_time;
  const auto followers = peers_.candidates(HostRole::kCacheFollower, Scope::kSameCluster);
  for (int g = 0; g < gets; ++g) {
    std::optional<core::HostId> follower;
    bool hot = false;
    if (!mix_->load_balancing_enabled) {
      follower = peers_.pick_skewed(HostRole::kCacheFollower, Scope::kSameCluster, rng_);
    } else if (!followers.empty()) {
      // Key-based routing: the object's key determines the follower; the
      // hot head is small and steady, the cold tail rare and large.
      const std::size_t object = object_popularity_->sample(rng_);
      hot = object < mix_->hot_objects.hot_head;
      follower = followers[core::splitmix64(object * 0x9E3779B97F4A7C15ULL) %
                           followers.size()];
    }
    if (!follower) break;

    const DataSize response = floored_size(hot ? hot_response_ : cold_response_, 32);
    const Duration service = Duration::micros(static_cast<std::int64_t>(
        80 + rng_.exponential(120.0)));

    if (mix_->connection_pooling_enabled) {
      Connection& conn = conns_.pooled(Dir::kOut, *follower, core::ports::kMemcache);
      // The cache response piggybacks the request's ACK.
      const TimePoint sent =
          wire_.send(Dir::kOut, conn, w.cache_get_request, at, Duration::micros(2), false);
      wire_.send(Dir::kIn, conn, response, sent + service);
    } else {
      // Pooling-off ablation: every get pays a handshake and teardown.
      Connection conn = conns_.ephemeral(Dir::kOut, *follower, core::ports::kMemcache);
      const TimePoint open_done = wire_.open(Dir::kOut, conn, at);
      const TimePoint sent = wire_.send(Dir::kOut, conn, w.cache_get_request, open_done);
      const TimePoint resp_done = wire_.send(Dir::kIn, conn, response, sent + service);
      wire_.close(conn, resp_done + Duration::micros(20));
    }
    at += w.burst_gap;
  }

  // 3. Multifeed / ads backend calls (same cluster; Figure 2).
  const auto mf_calls = static_cast<int>(rng_.poisson(w.multifeed_calls_per_request_mean));
  for (int m = 0; m < mf_calls; ++m) {
    const auto mf = peers_.pick(HostRole::kMultifeed, Scope::kSameCluster, rng_);
    if (!mf) break;
    Connection& conn = conns_.pooled(Dir::kOut, *mf, core::ports::kMultifeed);
    const TimePoint sent =
        wire_.send(Dir::kOut, conn, w.multifeed_request, at, Duration::micros(2), false);
    const DataSize mf_resp = floored_size(
        core::LogNormal{static_cast<double>(mix_->multifeed.response_median.count_bytes()),
                        mix_->multifeed.response_sigma},
        64);
    wire_.send(Dir::kIn, conn, mf_resp, sent + Duration::micros(300));
    at += w.burst_gap;
  }

  // 4. Response back to the SLB.
  if (slb) {
    Connection& in = conns_.pooled(Dir::kIn, *slb, core::ports::kHttp);
    wire_.send(Dir::kOut, in, floored_size(slb_response_, 256), at + Duration::micros(200));
  }
}

}  // namespace fbdcsim::services
