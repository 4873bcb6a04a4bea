// The endpoint-centric traffic-model framework.
//
// A TrafficModel synthesizes the packet streams observed at one monitored
// host: everything the host sends, and everything that arrives for it from
// peers outside its rack. (Intra-rack arrivals are produced by the rack
// neighbours' own models, so rack-local traffic is never double-counted;
// see workload/rack_sim.h.) This mirrors the paper's methodology exactly —
// port mirroring sees one host's bidirectional stream — and lets a 2-minute
// trace of a 300-rack fleet cost only the monitored rack's packets.
//
// TrafficModel is also the skeleton every per-role model derives from: it
// holds the state they all share (the mix, the RNG stream, the peer
// selector, the connection table, the simulator and the Wire) and its
// start() binds them before handing over to the model's own first schedule.
// Every request process a model runs is one arrivals() loop — a Poisson
// process with a rate and a body — so a model is its constructor (fixed
// peer sets, size distributions), its schedule_first() (one arrivals() per
// traffic class) and the bodies those loops run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "fbdcsim/core/distributions.h"
#include "fbdcsim/core/packet.h"
#include "fbdcsim/core/rng.h"
#include "fbdcsim/services/connections.h"
#include "fbdcsim/services/params.h"
#include "fbdcsim/services/peer_selection.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/topology/entities.h"
#include "fbdcsim/transport/demand.h"

namespace fbdcsim::services {

using core::SimPacket;

/// Where a model's packets go. Implemented by the rack simulation.
class TrafficSink {
 public:
  virtual ~TrafficSink() = default;

  /// A packet leaves the model's host NIC at the current simulated time.
  virtual void host_send(const SimPacket& packet) = 0;

  /// A packet from outside the rack arrives at the RSW destined to the
  /// model's host at the current simulated time.
  virtual void host_receive(const SimPacket& packet) = 0;

  /// The flow-level transport engine, when the sink runs one (TCP mode).
  /// Null means scripted mode: services emit pre-shaped packet timelines
  /// directly. When non-null, services::Wire routes byte demands through
  /// it instead and the packet structure becomes emergent.
  virtual transport::DemandSink* transport() { return nullptr; }
};

/// A per-host traffic generator. Implementations are the per-role service
/// models (web.h, cache.h, hadoop.h, backend.h).
class TrafficModel {
 public:
  virtual ~TrafficModel() = default;

  TrafficModel(const TrafficModel&) = delete;
  TrafficModel& operator=(const TrafficModel&) = delete;

  /// Begins generating traffic: binds the model to `sim` and `sink` (which
  /// must outlive the simulation run), then calls schedule_first().
  void start(sim::Simulator& sim, TrafficSink& sink);

 protected:
  TrafficModel(const topology::Fleet& fleet, core::HostId self, const ServiceMix& mix,
               core::RngStream rng);

  /// Schedules the model's first events, only at or after the current
  /// simulated time. Called once, by start().
  virtual void schedule_first() = 0;

  /// Runs one Poisson arrival process: waits Exp(1 / rate()), runs `body`,
  /// and repeats. `rate` is re-read before every draw (the cache
  /// follower's get rate follows its surges); a rate that is not positive
  /// ends the process, so a silenced model schedules nothing. The
  /// re-arming event captures both callables, which must fit
  /// InlineAction's inline buffer.
  template <typename Rate, typename Body>
  void arrivals(Rate rate, Body body) {
    const double r = rate();
    if (!(r > 0.0)) return;
    auto next = [this, rate, body] {
      body();
      arrivals(rate, body);
    };
    static_assert(sim::InlineAction::fits_inline<decltype(next)>,
                  "arrival captures must stay inline");
    sim_->schedule_after(core::Duration::from_seconds(rng_.exponential(1.0 / r)),
                         std::move(next));
  }

  /// One draw of the log-normal `dist`, floored at `floor_bytes`.
  [[nodiscard]] core::DataSize floored_size(const core::LogNormal& dist,
                                            std::int64_t floor_bytes) {
    return core::DataSize::bytes(
        std::max(floor_bytes, static_cast<std::int64_t>(dist.sample(rng_))));
  }

  /// A peer of `role` within `scope`: uniform while load balancing is on,
  /// Zipf-skewed in the load-balancing-off ablation.
  [[nodiscard]] std::optional<core::HostId> pick_balanced(core::HostRole role, Scope scope);

  /// A one-way `message` over a pooled connection to one member of the
  /// fixed peer `group`, drawn uniformly; nothing when the group is empty.
  void send_to_group(std::span<const core::HostId> group, core::Port port,
                     core::DataSize message);

  /// One of `hosts` (which must be non-empty), drawn uniformly.
  [[nodiscard]] core::HostId pick_from(std::span<const core::HostId> hosts);

  [[nodiscard]] const topology::Fleet& fleet() const { return peers_.fleet(); }
  [[nodiscard]] core::HostId self() const { return peers_.self(); }

  const ServiceMix* mix_;
  core::RngStream rng_;
  PeerSelector peers_;
  ConnectionTable conns_;
  sim::Simulator* sim_{nullptr};
  Wire wire_;
};

}  // namespace fbdcsim::services
