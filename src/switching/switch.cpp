#include "fbdcsim/switching/switch.h"

#include <algorithm>
#include <stdexcept>

#include <cstdio>

#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/telemetry/timeseries.h"

namespace fbdcsim::switching {

double apply_fault_profile(SwitchConfig& config, const faults::FaultPlan* plan,
                           std::uint64_t run_salt) {
  if (plan == nullptr || !plan->enabled()) return 1.0;
  const double factor = plan->buffer_shrink_factor(run_salt);
  if (factor >= 1.0) return 1.0;
  config.buffer_total = core::DataSize::bytes(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(config.buffer_total.count_bytes()) *
                                   factor)));
  FBDCSIM_T_COUNTER(shrunk, "switch.buffer_shrunk_runs", Sim);
  FBDCSIM_T_ADD(shrunk, 1);
  return factor;
}

SharedBufferSwitch::SharedBufferSwitch(sim::Simulator& sim, SwitchConfig config,
                                       DeliverFn deliver)
    : sim_{&sim}, config_{config}, deliver_{std::move(deliver)} {
  if (config_.num_ports == 0) throw std::invalid_argument{"SharedBufferSwitch: no ports"};
  if (config_.buffer_total.count_bytes() <= 0 || config_.dt_alpha <= 0.0) {
    throw std::invalid_argument{"SharedBufferSwitch: bad buffer config"};
  }
  ports_.resize(config_.num_ports);
  for (Port& p : ports_) {
    p.rate = config_.port_rate;
    p.queue.attach(node_pool_);
  }
}

bool SharedBufferSwitch::enqueue(std::size_t port_index, const SimPacket& packet) {
  Port& port = ports_.at(port_index);
  const std::int64_t bytes = packet.header.frame_bytes;
  const core::TimePoint arrival = sim_->now();

  // Dynamic-threshold admission: the packet is admitted only if this port's
  // queue stays below alpha * (free shared buffer).
  const std::int64_t free_bytes = config_.buffer_total.count_bytes() - buffered_bytes_;
  const double threshold = config_.dt_alpha * static_cast<double>(free_bytes);
  if (static_cast<double>(port.queued_bytes + bytes) > threshold ||
      buffered_bytes_ + bytes > config_.buffer_total.count_bytes()) {
    ++port.counters.dropped_packets;
    port.counters.dropped_bytes += bytes;
    if (on_drop_) on_drop_(port_index, packet, port.queued_bytes);
    return false;
  }

  Queued item{packet, arrival};
  // DCTCP-style step marking on the shared buffer: the admitted packet is
  // rewritten ECT -> CE when the occupancy it lands in exceeds K. Marking
  // the queued copy means the delivery callback — and therefore the
  // receiver's ECE echo — sees the mark.
  if (ecn_should_mark(buffered_bytes_ + bytes, config_.ecn_threshold.count_bytes(),
                      packet.ecn)) {
    item.packet.ecn = core::Ecn::kCe;
    ++port.counters.ecn_marked_packets;
  }
  port.queue.push_back(item);
  port.queued_bytes += bytes;
  buffered_bytes_ += bytes;
  ++port.counters.enqueued_packets;

  if (!port.transmitting) start_transmission(port_index);
  return true;
}

void SharedBufferSwitch::start_transmission(std::size_t port_index) {
  Port& port = ports_[port_index];
  if (port.queue.empty()) {
    port.transmitting = false;
    return;
  }
  port.transmitting = true;
  const Queued& head = port.queue.front();
  // Queuing delay: time from arrival to the start of transmission.
  const std::int64_t waited = (sim_->now() - head.arrival).count_nanos();
  port.counters.queuing_delay_ns += waited;
  port.counters.max_queuing_delay_ns = std::max(port.counters.max_queuing_delay_ns, waited);
  const core::Duration tx_time = port.rate.transmission_time(head.packet.header.frame_size());
  sim_->schedule_after(tx_time, [this, port_index] {
    Port& p = ports_[port_index];
    const SimPacket done = p.queue.front().packet;
    p.queue.pop_front();
    const std::int64_t bytes = done.header.frame_bytes;
    p.queued_bytes -= bytes;
    buffered_bytes_ -= bytes;
    ++p.counters.tx_packets;
    p.counters.tx_bytes += bytes;
    deliver_(port_index, done);
    start_transmission(port_index);
  });
}

void SharedBufferSwitch::register_probes(telemetry::TimeSeriesProbe& probe) const {
  probe.add_gauge("switch.buffer_occupancy_bytes", [this] { return buffered_bytes_; });
  probe.add_gauge("switch.tx_bytes_total", [this] {
    std::int64_t total = 0;
    for (const Port& p : ports_) total += p.counters.tx_bytes;
    return total;
  });
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    char name[48];
    // Zero-padded so the snapshot's name ordering matches port order.
    std::snprintf(name, sizeof name, "switch.port%03zu.queue_bytes", i);
    probe.add_gauge(name, [this, i] { return ports_[i].queued_bytes; });
  }
}

BufferOccupancySampler::BufferOccupancySampler(sim::Simulator& sim,
                                               const SharedBufferSwitch& sw,
                                               core::Duration period)
    : switch_{&sw},
      timer_{sim, period, [this](core::TimePoint now) { on_sample(now); }} {}

void BufferOccupancySampler::on_sample(core::TimePoint now) {
  const std::int64_t second = now.count_nanos() / 1'000'000'000;
  if (second != current_second_ && in_second_samples_ > 0) {
    flush_second();
    current_second_ = second;
  } else if (in_second_samples_ == 0) {
    current_second_ = second;
  }

  const double frac = std::clamp(switch_->buffer_occupancy_fraction(), 0.0, 1.0);
  const auto bin =
      std::min(static_cast<std::size_t>(frac * static_cast<double>(kBins)), kBins - 1);
  ++histogram_[bin];
  ++in_second_samples_;
  in_second_max_ = std::max(in_second_max_, frac);
  ++samples_;
}

void BufferOccupancySampler::flush_second() {
  // Median from the fixed-resolution histogram.
  const std::int64_t target = (in_second_samples_ + 1) / 2;
  std::int64_t acc = 0;
  double median = 0.0;
  for (std::size_t i = 0; i < kBins; ++i) {
    acc += histogram_[i];
    if (acc >= target) {
      median = (static_cast<double>(i) + 0.5) / static_cast<double>(kBins);
      break;
    }
  }
  seconds_.push_back(SecondStats{current_second_, median, in_second_max_});
  std::fill(histogram_.begin(), histogram_.end(), 0);
  in_second_samples_ = 0;
  in_second_max_ = 0.0;
}

void BufferOccupancySampler::finish() {
  if (in_second_samples_ > 0) flush_second();
  timer_.cancel();
}

}  // namespace fbdcsim::switching
