#include "fbdcsim/services/traffic_model.h"

namespace fbdcsim::services {

TrafficModel::TrafficModel(const topology::Fleet& fleet, core::HostId self,
                           const ServiceMix& mix, core::RngStream rng)
    : mix_{&mix}, rng_{rng}, peers_{fleet, self}, conns_{fleet, self} {}

void TrafficModel::start(sim::Simulator& sim, TrafficSink& sink) {
  sim_ = &sim;
  wire_ = Wire{sim, sink, self()};
  schedule_first();
}

std::optional<core::HostId> TrafficModel::pick_balanced(core::HostRole role, Scope scope) {
  return mix_->load_balancing_enabled ? peers_.pick(role, scope, rng_)
                                      : peers_.pick_skewed(role, scope, rng_);
}

void TrafficModel::send_to_group(std::span<const core::HostId> group, core::Port port,
                                 core::DataSize message) {
  if (group.empty()) return;
  Connection& conn = conns_.pooled(Dir::kOut, pick_from(group), port);
  wire_.send(Dir::kOut, conn, message, sim_->now());
}

core::HostId TrafficModel::pick_from(std::span<const core::HostId> hosts) {
  return hosts[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
}

}  // namespace fbdcsim::services
