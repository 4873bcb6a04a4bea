#include "fbdcsim/services/hadoop.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace fbdcsim::services {

namespace {
using core::DataSize;
using core::Duration;
using core::HostRole;
using core::TimePoint;
}  // namespace

HadoopModel::HadoopModel(const topology::Fleet& fleet, core::HostId self,
                         const ServiceMix& mix, core::RngStream rng)
    : TrafficModel{fleet, self, mix, rng},
      transfer_size_{static_cast<double>(mix.hadoop.transfer_median.count_bytes()),
                     mix.hadoop.transfer_sigma} {
  // Rack-local peers: the whole rack (fairly even spread, §4.2).
  for (const core::HostId h : peers_.candidates(HostRole::kHadoop, Scope::kSameRack)) {
    rack_partners_.push_back(h);
  }
  // Cluster partner set: partner_fraction of the cluster's Hadoop hosts,
  // drawn so they land across most racks (shuffle partners + HDFS replica
  // targets + data consumers).
  const auto cluster_peers = peers_.candidates(HostRole::kHadoop, Scope::kSameClusterOtherRack);
  const auto want = std::max<std::size_t>(
      8, static_cast<std::size_t>(static_cast<double>(cluster_peers.size()) *
                                  mix.hadoop.partner_fraction * 10.0));
  std::unordered_set<std::uint32_t> chosen;
  while (partners_.size() < std::min(want, cluster_peers.size())) {
    const core::HostId peer = pick_from(cluster_peers);
    if (chosen.insert(peer.value()).second) partners_.push_back(peer);
  }
}

void HadoopModel::schedule_first() {
  arrivals([this] { return mix_->hadoop.control_msgs_per_sec; }, [this] { send_control(); });
  // Start in a random phase position so co-located nodes desynchronize.
  if (rng_.bernoulli(mix_->hadoop.busy_period_mean.to_seconds() /
                     (mix_->hadoop.busy_period_mean.to_seconds() +
                      mix_->hadoop.quiet_period_mean.to_seconds()))) {
    enter_busy();
  } else {
    enter_quiet();
  }
}

void HadoopModel::enter_quiet() {
  busy_ = false;
  const std::uint64_t epoch = ++phase_epoch_;
  const Duration len =
      Duration::from_seconds(rng_.exponential(mix_->hadoop.quiet_period_mean.to_seconds()));
  sim_->schedule_after(len, [this, epoch] {
    if (epoch == phase_epoch_) enter_busy();
  });
}

void HadoopModel::enter_busy() {
  busy_ = true;
  const std::uint64_t epoch = ++phase_epoch_;
  const Duration len =
      Duration::from_seconds(rng_.exponential(mix_->hadoop.busy_period_mean.to_seconds()));
  sim_->schedule_after(len, [this, epoch] {
    if (epoch == phase_epoch_) enter_quiet();
  });
  // Bulk transfers run for this busy phase only: once the phase ends its
  // epoch is stale, which reads as a zero rate and ends the loop. Shuffle
  // is bidirectional: this node both serves map output and fetches it.
  // Inbound transfers are synthesized from outside the rack only
  // (rack-local inbound comes from neighbours' models; see traffic_model.h).
  arrivals(
      [this, epoch] {
        return in_busy_phase(epoch) ? mix_->hadoop.transfers_per_sec_busy : 0.0;
      },
      [this, epoch] {
        if (in_busy_phase(epoch)) launch_transfer(rng_.bernoulli(0.5) ? Dir::kIn : Dir::kOut);
      });
  start_shuffle_streams(epoch);
}

void HadoopModel::start_shuffle_streams(std::uint64_t epoch) {
  // A reducer fetches map output from many mappers at once, and HDFS
  // writes stream through replica pipelines; both hold connections open
  // for the whole phase with steady chunked transfers. These standing
  // streams produce the ~25 concurrent connections of §6.4.
  const HadoopParams& p = mix_->hadoop;
  for (int i = 0; i < p.shuffle_streams; ++i) {
    const auto peer =
        pick_partner(rng_.bernoulli(p.rack_local_fraction) && !rack_partners_.empty());
    if (!peer) continue;
    const Dir dir = i % 2 == 0 ? Dir::kIn : Dir::kOut;  // half fetches, half serves/writes
    Connection conn = conns_.ephemeral(dir, *peer, core::ports::kMapReduceShuffle);
    const TimePoint opened = wire_.open(dir, conn, sim_->now());
    schedule_stream_chunk(epoch, conn, dir, opened + Duration::micros(100));
  }
}

std::optional<core::HostId> HadoopModel::pick_partner(bool rack_local) {
  if (rack_local) return pick_from(rack_partners_);
  if (partners_.empty()) return std::nullopt;
  return pick_from(partners_);
}

void HadoopModel::schedule_stream_chunk(std::uint64_t epoch, Connection conn, Dir dir,
                                        TimePoint at) {
  if (at < sim_->now()) at = sim_->now();
  // Mutable: each send stores the transport handle back into this copy of
  // `conn`, which the next chunk inherits.
  sim_->schedule_at(at, [this, epoch, conn, dir]() mutable {
    if (!in_busy_phase(epoch)) {
      wire_.close(conn, sim_->now());
      return;
    }
    const HadoopParams& p = mix_->hadoop;
    const DataSize chunk = floored_size(
        core::LogNormal{static_cast<double>(p.stream_chunk_median.count_bytes()),
                        p.stream_chunk_sigma},
        512);
    // Streams are disk/application bound (~0.3-0.5 Gbps), not line rate.
    const Duration gap = Duration::micros(static_cast<std::int64_t>(25 + rng_.exponential(10.0)));
    const TimePoint done = wire_.send(dir, conn, chunk, sim_->now(), gap);
    const Duration wait = Duration::from_seconds(
        rng_.exponential(p.stream_interval_mean.to_seconds()));
    schedule_stream_chunk(epoch, conn, dir, done + wait);
  });
}

void HadoopModel::launch_transfer(Dir dir) {
  const HadoopParams& p = mix_->hadoop;

  const auto peer = pick_partner(dir == Dir::kOut && rng_.bernoulli(p.rack_local_fraction) &&
                                 !rack_partners_.empty());
  if (!peer) return;

  const DataSize size = DataSize::bytes(
      std::min(floored_size(transfer_size_, 128).count_bytes(), p.transfer_cap.count_bytes()));

  // Bulk data moves at a pace bounded by disk/app throughput; small
  // transfers go back-to-back.
  const Duration gap = Duration::micros(static_cast<std::int64_t>(2 + rng_.exponential(10.0)));
  const TimePoint now = sim_->now();

  Connection conn = conns_.ephemeral(dir, *peer, core::ports::kMapReduceShuffle);
  const TimePoint opened = wire_.open(dir, conn, now);
  const TimePoint done = wire_.send(dir, conn, size, opened, gap);
  wire_.close(conn, done + Duration::micros(50));
}

void HadoopModel::send_control() {
  const HadoopParams& p = mix_->hadoop;
  // Heartbeats and job-tracker RPCs flow regardless of phase; a sliver
  // (misc_bytes_fraction, 0.2% in Table 2) leaves the service entirely.
  if (rng_.bernoulli(p.misc_bytes_fraction)) {
    const auto svc = peers_.pick(HostRole::kService, Scope::kSameDatacenter, rng_);
    if (!svc) return;
    Connection& conn = conns_.pooled(Dir::kOut, *svc, core::ports::kSlb);
    wire_.send(Dir::kOut, conn, p.control_msg, sim_->now());
    return;
  }
  const auto peer = peers_.pick(HostRole::kHadoop, Scope::kSameClusterOtherRack, rng_);
  if (!peer) return;
  Connection& conn = conns_.pooled(Dir::kOut, *peer, core::ports::kHdfs);
  const TimePoint sent = wire_.send(Dir::kOut, conn, p.control_msg, sim_->now());
  wire_.send(Dir::kIn, conn, DataSize::bytes(200), sent + Duration::micros(250));
}

}  // namespace fbdcsim::services
