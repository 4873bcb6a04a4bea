// Shared order-sensitive fingerprints of rack-simulation output, used by
// the pool-width differential tests, the transport golden gates, and the
// golden generator (tests/golden/gen_transport_scripted.cpp). A
// fingerprint covers everything a run produces: the packet trace
// (timestamps, tuples, sizes, flags), buffer-occupancy seconds, aggregated
// port counters, capture-loss counters, and the executed-event count — so
// two runs with equal fingerprints are bit-identical for every analysis
// downstream. The committed transport_*.golden.txt files hold one
// golden_line() per golden_preset(); obs_transport.golden.txt holds one
// obs_golden_line() per obs_golden_preset() — the digests of the flows and
// tracepoint JSONL a run exports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "fbdcsim/core/rng.h"
#include "fbdcsim/telemetry/export.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/telemetry/tracepoint.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

namespace fbdcsim::tests {

inline std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Folds one captured header (timestamp, tuple, sizes, flags) into `h`.
inline std::uint64_t mix_header(std::uint64_t h, const core::PacketHeader& p) {
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
  return h;
}

/// Order-sensitive fingerprint of everything a rack run produces.
inline std::uint64_t fingerprint(const workload::RackSimResult& r) {
  std::uint64_t h = 0;
  for (const core::PacketHeader& p : r.trace) h = mix_header(h, p);
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

/// The TCP configurations the obs golden covers, in file order.
inline constexpr const char* kObsGoldenVariants[] = {"newreno", "sack", "dctcp"};

/// Switches `cfg` to flow-level TCP under one named variant: "sack" sets
/// recovery = kSack, "dctcp" sets cc = kDctcp with topology RTTs, and any
/// other name ("newreno", "tcp") keeps the default TcpParams.
inline void apply_tcp_variant(workload::RackSimConfig& cfg, std::string_view variant) {
  cfg.transport = workload::Transport::kTcp;
  if (variant == "sack") cfg.tcp.recovery = transport::LossRecovery::kSack;
  if (variant == "dctcp") {
    cfg.tcp.cc = transport::CongestionControl::kDctcp;
    cfg.tcp.rtt_mode = transport::RttMode::kTopology;
  }
}

/// The obs golden's preset: golden_preset() under one of kObsGoldenVariants
/// with the flight recorder and the flow ledger on. The flight recorder
/// holds every tracepoint a 300 ms capture records (under 2k), so each
/// one's values are pinned; the ledger ring is small enough that every
/// preset evicts (each closes 18k-245k transfers).
inline workload::RackSimConfig obs_golden_preset(const topology::Fleet& fleet,
                                                 std::string_view variant,
                                                 core::HostRole role,
                                                 const faults::FaultPlan* faults) {
  workload::RackSimConfig cfg = golden_preset(fleet, role, faults);
  apply_tcp_variant(cfg, variant);
  cfg.obs.mode = telemetry::ObsConfig::Mode::kOn;
  cfg.obs.flight_recorder = 4096;
  cfg.obs.flows = true;
  cfg.obs.flow_capacity = 8192;
  return cfg;
}

/// One obs golden line: "<variant> <role> <off|heavy> <flows FNV-1a>
/// <flows lines> <tracepoints FNV-1a> <tracepoint lines> <tracepoints.total>",
/// the digests taken over flows_to_jsonl and tracepoints_to_jsonl.
inline std::string obs_golden_line(std::string_view variant, core::HostRole role,
                                   bool heavy, const workload::RackSimResult& r) {
  const auto lines = [](const std::string& s) {
    return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
  };
  const std::string flows = telemetry::flows_to_jsonl({r.flows});
  const std::string tracepoints = telemetry::tracepoints_to_jsonl({r.tracepoints});
  char buf[192];
  std::snprintf(buf, sizeof buf, "%.*s %s %s %016llx %zu %016llx %zu %lld",
                static_cast<int>(variant.size()), variant.data(), core::to_string(role),
                heavy ? "heavy" : "off",
                static_cast<unsigned long long>(core::hash_name(flows)), lines(flows),
                static_cast<unsigned long long>(core::hash_name(tracepoints)),
                lines(tracepoints), static_cast<long long>(r.tracepoints.total));
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
