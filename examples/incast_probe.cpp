// Incast probe: the measurement the paper could NOT make (§7: "these
// constraints prevent us from evaluating effects like incast or
// microbursts") — but the simulator can.
//
// N cache followers answer a synchronized multiget from one Web server;
// all N responses converge on the Web host's RSW downlink within a few
// microseconds. The probe sweeps the fan-in degree and reports downlink
// queue peaks and drops, the classic incast cliff.
//
// Each fan-in runs under both congestion-control regimes (the `cc`
// column): `reno` offers plain packets to an unmarked switch — the first
// congestion signal a sender would see is the drop itself; `dctcp` offers
// ECT packets with the marking threshold at K = buffer/4 (DESIGN.md §12)
// — CE marks fire as soon as the burst crosses K, a signal that arrives
// well before the cliff. The burst is open-loop (scripted arrivals), so
// queue dynamics are identical across the two rows; what differs is when
// the congestion signal exists at all. The closed-loop consequence — DCTCP
// converting that earlier signal into fewer drops and a lower occupancy
// tail — is measured by bench_ablation_transport's Reno-vs-DCTCP section.
//
// Usage: incast_probe [response_bytes]
#include <cstdio>
#include <cstdlib>

#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/switching/switch.h"

using namespace fbdcsim;

namespace {

struct CcRegime {
  const char* name;
  bool dctcp;
};

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t response_payload = argc > 1 ? std::atoll(argv[1]) : 4096;

  std::printf("incast probe: synchronized %lld-B responses converging on one 10G\n",
              static_cast<long long>(response_payload));
  std::printf("downlink behind a shared-buffer RSW (64 KB pool, DT alpha=2;\n");
  std::printf("dctcp rows mark ECT packets at K = 16 KB)\n\n");
  std::printf("%8s  %-6s  %12s  %12s  %9s  %9s  %12s  %12s\n", "fan-in", "cc", "offered",
              "peak queue", "drops", "marks", "first signal", "completion");

  for (const int fanin : {4, 8, 16, 32, 64, 128, 256}) {
    for (const CcRegime regime : {CcRegime{"reno", false}, CcRegime{"dctcp", true}}) {
      sim::Simulator sim;
      switching::SwitchConfig cfg;
      cfg.num_ports = 1;  // the victim downlink
      cfg.buffer_total = core::DataSize::kilobytes(64);
      cfg.dt_alpha = 2.0;
      cfg.port_rate = core::DataRate::gigabits_per_sec(10);
      if (regime.dctcp) {
        cfg.ecn_threshold = core::DataSize::bytes(cfg.buffer_total.count_bytes() / 4);
      }

      core::TimePoint last_delivery;
      // The first moment a sender-visible congestion signal exists: a CE
      // mark (dctcp; observed on the delivered packet, since marking
      // rewrites ECT to CE at enqueue — the enqueue timestamp is when the
      // signal was created) or the drop itself (reno's only signal).
      bool have_signal = false;
      core::TimePoint first_signal;
      auto record_signal = [&](core::TimePoint at) {
        if (!have_signal || at < first_signal) {
          have_signal = true;
          first_signal = at;
        }
      };
      switching::SharedBufferSwitch sw{
          sim, cfg, [&](std::size_t, const switching::SimPacket& pkt) {
            last_delivery = sim.now();
            if (pkt.ecn == core::Ecn::kCe) record_signal(pkt.header.timestamp);
          }};
      sw.set_drop_hook([&](std::size_t, const switching::SimPacket&, std::int64_t) {
        record_signal(sim.now());
      });

      // Responses arrive nearly simultaneously (the request fan-out took
      // ~microseconds); each is segmented at the MSS.
      std::int64_t offered = 0;
      core::DataSize peak = core::DataSize::bytes(0);
      for (int i = 0; i < fanin; ++i) {
        std::int64_t remaining = response_payload;
        core::TimePoint at =
            core::TimePoint::from_nanos(i % 8 * 200);  // tiny arrival jitter
        while (remaining > 0) {
          const std::int64_t seg =
              std::min<std::int64_t>(remaining, core::wire::kMaxTcpPayloadBytes);
          remaining -= seg;
          switching::SimPacket pkt;
          pkt.header.timestamp = at;
          pkt.header.payload_bytes = seg;
          pkt.header.frame_bytes = core::wire::tcp_frame_bytes(seg);
          pkt.header.tuple.src_port = static_cast<core::Port>(40000 + i);
          if (regime.dctcp) pkt.ecn = core::Ecn::kEct;
          offered += pkt.header.frame_bytes;
          sim.schedule_at(at, [&sw, pkt, &peak] {
            sw.enqueue(0, pkt);
            peak = std::max(peak, sw.buffer_occupancy());
          });
          at += core::Duration::nanos(1250);  // sender NIC at 10G
        }
      }
      sim.run();

      const auto& counters = sw.counters(0);
      char signal[32];
      if (!have_signal) {
        std::snprintf(signal, sizeof signal, "%12s", "-");
      } else {
        std::snprintf(signal, sizeof signal, "%10.1fus",
                      first_signal.since_epoch().to_micros());
      }
      std::printf("%8d  %-6s  %10.1fKB  %10.1fKB  %9lld  %9lld  %12s  %10.1fus\n",
                  fanin, regime.name, static_cast<double>(offered) / 1e3,
                  static_cast<double>(peak.count_bytes()) / 1e3,
                  static_cast<long long>(counters.dropped_packets),
                  static_cast<long long>(counters.ecn_marked_packets), signal,
                  last_delivery.since_epoch().to_micros());
    }
  }

  std::printf(
      "\nReading: below the buffer limit the burst is absorbed and completion\n"
      "time grows linearly; past it, drops appear — with TCP, those drops\n"
      "would become timeouts and goodput collapse. The dctcp rows show CE\n"
      "marks (and a congestion signal) appearing several fan-in steps before\n"
      "the drop cliff: the early-warning margin a closed DCTCP loop converts\n"
      "into avoided losses. This is the §7 future-work measurement, made\n"
      "possible by the simulator.\n");
  return 0;
}
