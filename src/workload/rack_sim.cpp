#include "fbdcsim/workload/rack_sim.h"

#include <algorithm>
#include <stdexcept>

#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/transport/mux.h"

namespace fbdcsim::workload {

namespace {
using services::SimPacket;

/// Stable synthetic LinkId for one RSW uplink port, so the fault plan's
/// per-link schedule applies to rack uplinks that have no fleet-level
/// LinkId. Keyed on the run seed: two racks simulated with different seeds
/// see independent uplink fault draws.
core::LinkId uplink_link_id(std::uint64_t seed, int port) {
  return core::LinkId{static_cast<std::uint32_t>(
      core::splitmix64(seed ^ (0xF00DULL + static_cast<std::uint64_t>(port))))};
}

// Each rack layer keeps its own counts; this table is the only place they
// reach the registry, once per run and never per packet (DESIGN.md §7).
// PUBLISH registers a counter once its count is nonzero, PUBLISH_ALWAYS
// even at zero (reports always carry the switch outcome counters).
#define PUBLISH_ALWAYS(name, count)   \
  do {                                \
    FBDCSIM_T_COUNTER(c_, name, Sim); \
    FBDCSIM_T_ADD(c_, count);         \
  } while (0)
#define PUBLISH(name, count) \
  if (const std::int64_t n_ = (count); n_ != 0) PUBLISH_ALWAYS(name, n_)

void publish_run_counters(const RackSimResult& r, const transport::TransportMux* mux) {
  const switching::PortCounters &up = r.uplink, &down = r.downlinks;
  PUBLISH_ALWAYS("switch.enqueued_packets", up.enqueued_packets + down.enqueued_packets);
  PUBLISH_ALWAYS("switch.dropped_packets", up.dropped_packets + down.dropped_packets);
  PUBLISH("switch.delivered_packets", up.tx_packets + down.tx_packets);
  PUBLISH("switch.tx_bytes", up.tx_bytes + down.tx_bytes);
  PUBLISH("transport.ecn_marked", up.ecn_marked_packets + down.ecn_marked_packets);
  PUBLISH("capture.dropped", r.capture_dropped);
  if (mux == nullptr) return;
  const transport::TransportMux::Stats& s = mux->stats();
  PUBLISH("transport.connections", s.connections_created);
  PUBLISH("transport.handshakes", s.handshakes_completed);
  PUBLISH("transport.handshake_failures", s.handshake_failures);
  PUBLISH("transport.segments", s.segments_sent);
  PUBLISH("transport.retransmits", s.retransmit_segments);
  PUBLISH("transport.fast_retransmits", s.fast_retransmits);
  PUBLISH("transport.rto_fired", s.rto_fired);
  PUBLISH("transport.path_loss_drops", s.path_loss_drops);
  PUBLISH("transport.switch_drops", s.switch_drop_notifications);
  PUBLISH("transport.sack_blocks", s.sack_blocks_recorded);
  PUBLISH("transport.sack_bytes", s.sack_bytes);
  PUBLISH("transport.sack_retransmits", s.sack_retransmits);
  PUBLISH("transport.sack_rescue", s.sack_rescue_retransmits);
  PUBLISH("transport.ecn_echoed", s.ecn_echoed_acks);
  PUBLISH("transport.dctcp_reductions", s.dctcp_cwnd_reductions);
}
#undef PUBLISH
#undef PUBLISH_ALWAYS
}  // namespace

RackSimulation::RackSimulation(const topology::Fleet& fleet, RackSimConfig config)
    : fleet_{&fleet}, config_{config}, capture_buffer_{config.capture_memory_bytes} {
  if (!config_.monitored_host.is_valid()) {
    throw std::invalid_argument{"RackSimulation: monitored_host required"};
  }
  rack_ = fleet.host(config_.monitored_host).rack;
  const topology::Rack& rack = fleet.rack(rack_);
  num_host_ports_ = rack.hosts.size();
  if (num_host_ports_ == 0) {
    throw std::invalid_argument{"RackSimulation: monitored rack has no hosts"};
  }

  faulted_ = config_.faults != nullptr && config_.faults->enabled();

#if FBDCSIM_TELEMETRY_ENABLED
  // Observability opt-in. The flight recorder exists from construction so
  // t=0 fault-epoch transitions are captured; registered globally so
  // FlightRecorders::dump_all / the crash handler can reach it.
  if (config_.obs.enabled()) {
    tracepoints_ = std::make_unique<telemetry::TracePointLog>(
        config_.monitored_host.value(), config_.obs.flight_recorder);
    telemetry::FlightRecorders::add(tracepoints_.get());
    telemetry::FlightRecorders::arm_crash_dump();
    probe_ = std::make_unique<telemetry::TimeSeriesProbe>(telemetry::kProbePeriod,
                                                          config_.obs.series_capacity);
  }
#endif

  switching::SwitchConfig sw = config_.rsw;
  sw.num_ports = num_host_ports_ + static_cast<std::size_t>(kRackUplinkPorts);
  const double shrink = switching::apply_fault_profile(sw, config_.faults, config_.seed);
  // ECN marking composes with buffer-shrink faults: an explicit threshold
  // scales by the same factor as the buffer (keeping K meaningful inside
  // the shrunken buffer), and the DCTCP auto-default derives from the
  // post-shrink size. Scripted and NewReno runs emit no ECT packets, so a
  // configured threshold never fires for them.
  if (shrink < 1.0 && sw.ecn_threshold.count_bytes() > 0) {
    sw.ecn_threshold = core::DataSize::bytes(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               static_cast<double>(sw.ecn_threshold.count_bytes()) * shrink)));
  }
  if (config_.transport == Transport::kTcp &&
      config_.tcp.cc == transport::CongestionControl::kDctcp &&
      sw.ecn_threshold.count_bytes() <= 0) {
    // Default K: 20 full-size frames (the DCTCP paper's shallow-RTT
    // guideline, K ~ C*RTT/7 — tens of kilobytes at 10 Gbps and this
    // fabric's sub-100-us RTTs), capped at a quarter of the (possibly
    // shrunken) shared buffer so marking always engages well before DT
    // admission starts dropping. The 12-MB Trident-era buffer is ~100x the
    // bandwidth-delay product, so a buffer-proportional K would never fire.
    constexpr std::int64_t kDefaultEcnThresholdBytes = 20 * 1500;
    sw.ecn_threshold = core::DataSize::bytes(std::max<std::int64_t>(
        1, std::min(kDefaultEcnThresholdBytes, sw.buffer_total.count_bytes() / 4)));
  }
  if (shrink < 1.0) {
    FBDCSIM_T_TRACEPOINT(tracepoints_.get(), 0, FaultEpoch, ~std::uint64_t{0},
                         telemetry::kFaultEpochBufferShrunk,
                         static_cast<std::int64_t>(shrink * 1e6));
  }
  // Delivery callback: scripted runs ignore it (packets simply leave the
  // modelled rack); in TCP mode the transport engine observes every egress
  // so ACK clocking and handshake progress are driven by real switch
  // behavior. transport_ is still null here — the check happens per packet.
  rsw_ = std::make_unique<switching::SharedBufferSwitch>(
      sim_, sw, [this](std::size_t, const SimPacket& packet) {
        if (transport_) transport_->on_delivered(packet);
      });
  if (config_.transport == Transport::kTcp) {
    transport_ = std::make_unique<transport::TransportMux>(
        sim_, fleet, *this, config_.tcp, config_.faults);
  }
  // The switch's one drop hook feeds both drop observers: the flight
  // recorder's PacketDrop tracepoint, then the transport's on_dropped.
  // Installed only when one of them exists, so obs-off scripted runs pay
  // nothing per drop.
  if (tracepoints_ || transport_) {
    rsw_->set_drop_hook(
        [this](std::size_t port, const SimPacket& packet,
               [[maybe_unused]] std::int64_t queued_bytes) {
          FBDCSIM_T_TRACEPOINT(tracepoints_.get(), sim_.now().count_nanos(), PacketDrop,
                               port, packet.header.frame_bytes, queued_bytes);
          if (transport_) transport_->on_dropped(port, packet);
        });
  }
#if FBDCSIM_TELEMETRY_ENABLED
  // FBDCSIM_OBS=flows: the per-flow causal ledger. TCP mode only — scripted
  // packets have no transport lifecycle to record. Switch-drop attributions
  // carry the rack id and, when the fault plan shrank the shared buffer at
  // t=0, the epoch code that names that decision as the standing cause.
  if (config_.obs.enabled() && config_.obs.flows && transport_) {
    flow_ledger_ = std::make_unique<telemetry::FlowLedger>(
        config_.monitored_host.value(), config_.obs.flow_capacity, rack_.value(),
        shrink < 1.0 ? telemetry::kFaultEpochBufferShrunk : -1);
  }
#endif
  if (transport_) transport_->set_observers(tracepoints_.get(), flow_ledger_.get());
  if (probe_) {
    rsw_->register_probes(*probe_);
    if (transport_) {
      transport_->register_probes(*probe_);
    }
    // Link tx bytes split the way every analysis reads them: CSW-facing
    // uplinks vs host downlinks.
    probe_->add_gauge("rack.uplink_tx_bytes", [this] {
      std::int64_t total = 0;
      for (std::size_t p = num_host_ports_; p < rsw_->num_ports(); ++p) {
        total += rsw_->counters(p).tx_bytes;
      }
      return total;
    });
    probe_->add_gauge("rack.downlink_tx_bytes", [this] {
      std::int64_t total = 0;
      for (std::size_t p = 0; p < num_host_ports_; ++p) {
        total += rsw_->counters(p).tx_bytes;
      }
      return total;
    });
  }

  // Uplink fault evaluation. Link-minute faults are sampled once at t=0 for
  // the whole run: a rack capture spans minutes at most, and a fixed ECMP
  // set keeps per-run behaviour easy to reason about. Failed uplinks leave
  // the ECMP set; degraded ones stay but run slower. If every uplink failed
  // the full set is kept (a rack with zero uplinks would wedge the run).
  for (int p = 0; p < kRackUplinkPorts; ++p) {
    const std::size_t port = num_host_ports_ + static_cast<std::size_t>(p);
    if (!faulted_) {
      live_uplinks_.push_back(port);
      continue;
    }
    const core::LinkId link = uplink_link_id(config_.seed, p);
    if (config_.faults->link_failed(link, core::TimePoint::zero())) {
      FBDCSIM_T_COUNTER(failed, "rack.uplinks_failed", Sim);
      FBDCSIM_T_ADD(failed, 1);
      FBDCSIM_T_TRACEPOINT(tracepoints_.get(), 0, FaultEpoch, port,
                           telemetry::kFaultEpochUplinkFailed, 0);
      continue;
    }
    const double factor = config_.faults->link_capacity_factor(link, core::TimePoint::zero());
    if (factor < 1.0) {
      rsw_->set_port_rate(port,
                          core::DataRate::bits_per_sec(std::max<std::int64_t>(
                              1, static_cast<std::int64_t>(
                                     static_cast<double>(sw.port_rate.count_bits_per_sec()) *
                                     factor))));
      FBDCSIM_T_COUNTER(degraded, "rack.uplinks_degraded", Sim);
      FBDCSIM_T_ADD(degraded, 1);
      FBDCSIM_T_TRACEPOINT(tracepoints_.get(), 0, FaultEpoch, port,
                           telemetry::kFaultEpochUplinkDegraded,
                           static_cast<std::int64_t>(factor * 1e6));
    }
    live_uplinks_.push_back(port);
  }
  if (live_uplinks_.empty()) {
    for (int p = 0; p < kRackUplinkPorts; ++p) {
      live_uplinks_.push_back(num_host_ports_ + static_cast<std::size_t>(p));
    }
  }

  // Mirroring rule: the monitored host, or the whole rack for Web racks.
  std::vector<core::Ipv4Addr> monitored;
  if (config_.mirror_whole_rack) {
    for (const core::HostId h : rack.hosts) monitored.push_back(fleet.host(h).addr);
  } else {
    monitored.push_back(fleet.host(config_.monitored_host).addr);
  }
  mirror_ = std::make_unique<monitoring::PortMirror>(std::move(monitored), capture_buffer_);

  // One traffic model per rack host, each with an independent RNG stream.
  // Non-mirrored neighbours may run scaled-down (their traffic matters only
  // for switch-buffer pressure).
  background_mix_ = scale_rates(config_.mix, config_.background_rate_scale);
  const core::RngStream root{config_.seed};
  for (const core::HostId h : rack.hosts) {
    const bool mirrored = config_.mirror_whole_rack || h == config_.monitored_host;
    const services::ServiceMix& mix = mirrored ? config_.mix : background_mix_;
    models_.push_back(services::make_model(fleet, h, mix, root.fork("host", h.value())));
  }
}

RackSimulation::~RackSimulation() {
  if (tracepoints_) telemetry::FlightRecorders::remove(tracepoints_.get());
}

std::optional<std::size_t> RackSimulation::downlink_port(core::HostId host) const {
  const topology::Host& h = fleet_->host(host);
  if (h.rack != rack_) return std::nullopt;
  return h.rack_slot;
}

std::size_t RackSimulation::egress_port_for(const SimPacket& packet) const {
  if (const auto port = downlink_port(packet.dst)) return *port;
  // Uplink: ECMP over the live CSW-facing ports by 5-tuple hash. Fault-free
  // runs hash over all uplinks (identical to the pre-fault behaviour).
  const std::size_t h = std::hash<core::FiveTuple>{}(packet.header.tuple);
  return live_uplinks_[h % live_uplinks_.size()];
}

void RackSimulation::observe(const core::PacketHeader& header) {
  if (!capturing_) return;
  if (faulted_ && mirror_->matches(header)) {
    // Mirror loss under load: decided per frame identity, so the same
    // frame drops (or survives) regardless of sharding or replay order.
    const std::uint64_t key = faults::FaultPlan::sample_key(
        config_.monitored_host.value(), header.timestamp.count_nanos(),
        std::hash<core::FiveTuple>{}(header.tuple));
    if (config_.faults->capture_drop(key, rsw_->buffer_occupancy_fraction())) {
      capture_buffer_.drop_injected();
      return;
    }
  }
  mirror_->observe(header);
}

void RackSimulation::host_send(const SimPacket& packet) {
  observe(packet.header);
  rsw_->enqueue(egress_port_for(packet), packet);
}

void RackSimulation::host_receive(const SimPacket& packet) {
  observe(packet.header);
  // Not for a host of this rack (defensive): nothing to deliver.
  if (const auto port = downlink_port(packet.dst)) rsw_->enqueue(*port, packet);
}

transport::DemandSink* RackSimulation::transport() { return transport_.get(); }

RackSimResult RackSimulation::run() {
  // Start the models at t=0; open the capture window after warmup.
  for (auto& model : models_) model->start(sim_, *this);
  if (config_.sample_buffer) {
    sampler_ = std::make_unique<switching::BufferOccupancySampler>(sim_, *rsw_);
  }
  if (probe_) {
    probe_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, telemetry::kProbePeriod,
        [this](core::TimePoint now) { probe_->sample_tick(now.count_nanos()); });
  }

  capture_start_ = core::TimePoint::zero() + config_.warmup;
  sim_.schedule_at(capture_start_, [this] { capturing_ = true; });
  sim_.run_until(capture_start_ + config_.capture);

  RackSimResult result;
  if (sampler_) {
    sampler_->finish();
    result.buffer_seconds.assign(sampler_->per_second().begin(), sampler_->per_second().end());
  }
  result.trace = capture_buffer_.spool();
  std::sort(result.trace.begin(), result.trace.end(),
            [](const core::PacketHeader& a, const core::PacketHeader& b) {
              return a.timestamp < b.timestamp;
            });
  result.capture_dropped = capture_buffer_.dropped();
  result.capture_injected_dropped = capture_buffer_.injected_dropped();
  for (std::size_t p = 0; p < rsw_->num_ports(); ++p) {
    const switching::PortCounters& c = rsw_->counters(p);
    switching::PortCounters& agg = p < num_host_ports_ ? result.downlinks : result.uplink;
    agg.tx_packets += c.tx_packets;
    agg.tx_bytes += c.tx_bytes;
    agg.enqueued_packets += c.enqueued_packets;
    agg.dropped_packets += c.dropped_packets;
    agg.dropped_bytes += c.dropped_bytes;
    agg.queuing_delay_ns += c.queuing_delay_ns;
    agg.max_queuing_delay_ns = std::max(agg.max_queuing_delay_ns, c.max_queuing_delay_ns);
    agg.ecn_marked_packets += c.ecn_marked_packets;
  }
  result.events = sim_.executed_events();
  result.capture_start = capture_start_;
  result.capture_end = capture_start_ + config_.capture;
  if (probe_) {
    probe_timer_->cancel();
    result.timeseries = probe_->snapshot();
  }
  if (tracepoints_) {
    result.tracepoints = tracepoints_->snapshot();
    if (config_.obs.mode == telemetry::ObsConfig::Mode::kDump) tracepoints_->dump(stderr);
  }
  if (flow_ledger_) {
    // Close still-open transfers (completed_ns = -1) so every birth the run
    // observed is accounted for, then hand the ring over oldest-first.
    flow_ledger_->finalize();
    result.flows = flow_ledger_->take();
  }
  publish_run_counters(result, transport_.get());
  return result;
}

services::ServiceMix scale_rates(const services::ServiceMix& mix, double factor) {
  services::ServiceMix out = mix;
  out.web.user_requests_per_sec *= factor;
  out.web.ephemeral_per_sec *= factor;
  out.cache_follower.gets_served_per_sec *= factor;
  out.cache_follower.ephemeral_per_sec *= factor;
  out.cache_leader.coherency_msgs_per_sec *= factor;
  out.cache_leader.db_ops_per_sec *= factor;
  out.cache_leader.ephemeral_per_sec *= factor;
  out.hadoop.transfers_per_sec_busy *= factor;
  out.hadoop.control_msgs_per_sec *= factor;
  out.multifeed.requests_served_per_sec *= factor;
  out.slb.user_requests_per_sec *= factor;
  out.database.queries_served_per_sec *= factor;
  out.service.messages_per_sec *= factor;
  return out;
}

}  // namespace fbdcsim::workload
