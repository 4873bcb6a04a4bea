// Shared order-sensitive fingerprints of rack-simulation output, used by
// the pool-width differential tests, the transport golden gates, and the
// golden generator (tests/golden/gen_transport_scripted.cpp). A
// fingerprint covers everything a run produces: the packet trace
// (timestamps, tuples, sizes, flags), buffer-occupancy seconds, aggregated
// port counters, capture-loss counters, and the executed-event count — so
// two runs with equal fingerprints are bit-identical for every analysis
// downstream. The committed transport_*.golden.txt files hold one
// golden_line() per golden_preset().
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "fbdcsim/telemetry/export.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

namespace fbdcsim::tests {

inline std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Order-sensitive fingerprint of everything a rack run produces.
inline std::uint64_t fingerprint(const workload::RackSimResult& r) {
  std::uint64_t h = 0;
  for (const core::PacketHeader& p : r.trace) {
    h = mix64(h, static_cast<std::uint64_t>(p.timestamp.count_nanos()));
    h = mix64(h, p.tuple.src_ip.value());
    h = mix64(h, p.tuple.dst_ip.value());
    h = mix64(h, (static_cast<std::uint64_t>(p.tuple.src_port) << 16) | p.tuple.dst_port);
    h = mix64(h, static_cast<std::uint64_t>(p.tuple.protocol));
    h = mix64(h, static_cast<std::uint64_t>(p.frame_bytes));
    h = mix64(h, static_cast<std::uint64_t>(p.payload_bytes));
    // ece (bit 5) is zero on every scripted/NewReno path, so including it
    // leaves the pre-DCTCP goldens untouched while letting the DCTCP
    // differential catch echo-path divergence.
    h = mix64(h, static_cast<std::uint64_t>(p.flags.syn) |
                     (static_cast<std::uint64_t>(p.flags.ack) << 1) |
                     (static_cast<std::uint64_t>(p.flags.fin) << 2) |
                     (static_cast<std::uint64_t>(p.flags.rst) << 3) |
                     (static_cast<std::uint64_t>(p.flags.psh) << 4) |
                     (static_cast<std::uint64_t>(p.flags.ece) << 5));
  }
  for (const auto& s : r.buffer_seconds) {
    h = mix64(h, static_cast<std::uint64_t>(s.second));
    h = mix64(h, static_cast<std::uint64_t>(s.median_fraction * 1e12));
    h = mix64(h, static_cast<std::uint64_t>(s.max_fraction * 1e12));
  }
  for (const switching::PortCounters& c : {r.uplink, r.downlinks}) {
    h = mix64(h, static_cast<std::uint64_t>(c.tx_packets));
    h = mix64(h, static_cast<std::uint64_t>(c.tx_bytes));
    h = mix64(h, static_cast<std::uint64_t>(c.enqueued_packets));
    h = mix64(h, static_cast<std::uint64_t>(c.dropped_packets));
    h = mix64(h, static_cast<std::uint64_t>(c.dropped_bytes));
    h = mix64(h, static_cast<std::uint64_t>(c.queuing_delay_ns));
    h = mix64(h, static_cast<std::uint64_t>(c.max_queuing_delay_ns));
  }
  h = mix64(h, static_cast<std::uint64_t>(r.capture_dropped));
  h = mix64(h, static_cast<std::uint64_t>(r.capture_injected_dropped));
  h = mix64(h, r.events);
  return h;
}

/// The monitored roles every transport golden covers, in file order.
inline constexpr core::HostRole kGoldenRoles[] = {
    core::HostRole::kWeb, core::HostRole::kCacheFollower, core::HostRole::kCacheLeader,
    core::HostRole::kHadoop};

/// The rack preset one golden line pins: a 300 ms capture after 100 ms of
/// warm-up, buffer sampling on, under `faults` (nullptr = fault-free).
/// Transport settings are left at their defaults for the caller to set.
inline workload::RackSimConfig golden_preset(const topology::Fleet& fleet,
                                             core::HostRole role,
                                             const faults::FaultPlan* faults) {
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, role, core::Duration::millis(300));
  cfg.warmup = core::Duration::millis(100);
  cfg.sample_buffer = true;
  cfg.faults = faults;
  return cfg;
}

/// One golden line: "<role> <off|heavy> <fingerprint> <trace length>
/// <executed events>".
inline std::string golden_line(core::HostRole role, bool heavy,
                               const workload::RackSimResult& r) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s %s %016llx %zu %llu", core::to_string(role),
                heavy ? "heavy" : "off", static_cast<unsigned long long>(fingerprint(r)),
                r.trace.size(), static_cast<unsigned long long>(r.events));
  return buf;
}

/// The deterministic (Kind::kSim) section of the global metrics snapshot,
/// as the byte-stable JSON the golden gate uses.
inline std::string sim_metrics_json() {
  const std::string json =
      telemetry::to_json(telemetry::MetricsRegistry::global().snapshot());
  const std::size_t sim = json.find("\"sim\":");
  const std::size_t wall = json.find(",\"wall\":");
  if (sim == std::string::npos || wall == std::string::npos) return json;
  return json.substr(sim, wall - sim);
}

}  // namespace fbdcsim::tests
