#include "fbdcsim/workload/baseline.h"

#include <algorithm>

#include "fbdcsim/core/distributions.h"

namespace fbdcsim::workload {

namespace {
using core::Duration;
using core::TimePoint;
}  // namespace

std::vector<core::PacketHeader> generate_literature_trace(
    const topology::Fleet& fleet, core::HostId host, core::Duration duration,
    const LiteratureWorkloadConfig& config) {
  core::RngStream rng{config.seed};
  const topology::Host& self = fleet.host(host);

  // Destination working set: a handful of peers, mostly in-rack.
  std::vector<core::HostId> dests;
  {
    std::vector<core::HostId> rack_peers;
    std::vector<core::HostId> cluster_peers;
    std::vector<core::HostId> far_peers;
    for (const topology::Host& h : fleet.hosts()) {
      if (h.id == host) continue;
      if (h.rack == self.rack) {
        rack_peers.push_back(h.id);
      } else if (h.cluster == self.cluster) {
        cluster_peers.push_back(h.id);
      } else {
        far_peers.push_back(h.id);
      }
    }
    auto pick_from = [&rng](const std::vector<core::HostId>& v) {
      return v[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
    };
    for (int i = 0; i < config.concurrent_destinations; ++i) {
      const double u = rng.uniform();
      if (u < config.rack_local_fraction && !rack_peers.empty()) {
        dests.push_back(pick_from(rack_peers));
      } else if (u < 1.0 - config.off_cluster_fraction && !cluster_peers.empty()) {
        dests.push_back(pick_from(cluster_peers));
      } else if (!far_peers.empty()) {
        dests.push_back(pick_from(far_peers));
      }
    }
    if (dests.empty() && !rack_peers.empty()) dests.push_back(rack_peers.front());
  }

  const core::LogNormal on_period{config.on_period_median_ms * 1e-3, config.period_sigma};
  const core::LogNormal off_period{config.off_period_median_ms * 1e-3, config.period_sigma};
  const core::LogNormal interarrival{config.interarrival_median_us * 1e-6,
                                     config.interarrival_sigma};

  std::vector<core::PacketHeader> trace;
  core::Port src_port = core::ports::kEphemeralBase;
  TimePoint now = TimePoint::zero();
  const TimePoint end = TimePoint::zero() + duration;

  while (now < end) {
    // ON period: a train of packets to one destination (Kapoor et al.'s
    // packet trains), then an OFF gap.
    const core::HostId dst =
        dests[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(dests.size()) - 1))];
    const TimePoint on_end =
        now + Duration::from_seconds(std::min(on_period.sample(rng), 0.5));
    const core::FiveTuple tuple{self.addr, fleet.host(dst).addr,
                                static_cast<core::Port>(src_port++),
                                core::ports::kHdfs, core::Protocol::kTcp};
    while (now < on_end && now < end) {
      core::PacketHeader pkt;
      pkt.timestamp = now;
      pkt.tuple = tuple;
      const bool mtu = rng.bernoulli(config.mtu_fraction);
      pkt.payload_bytes = mtu ? std::int32_t{core::wire::kMaxTcpPayloadBytes} : 0;
      pkt.frame_bytes = static_cast<std::int32_t>(core::wire::tcp_frame_bytes(pkt.payload_bytes));
      pkt.flags = core::TcpFlags{.ack = true, .psh = mtu};
      trace.push_back(pkt);
      now += Duration::from_seconds(std::min(interarrival.sample(rng), 0.01));
    }
    now += Duration::from_seconds(std::min(off_period.sample(rng), 1.0));
  }
  return trace;
}

}  // namespace fbdcsim::workload
