// Micro-benchmarks (google-benchmark) of the library's hot paths: the
// event loop (including schedule_at + dispatch on the draining bucket),
// random-stream draws and forks, distribution samplers, switch forwarding,
// flow assembly, and heavy-hitter extraction. These guard the performance
// that makes the packet-level reproductions tractable (tens of millions of
// events per experiment).
#include <benchmark/benchmark.h>

#include "fbdcsim/analysis/flow_table.h"
#include "fbdcsim/analysis/heavy_hitters.h"
#include "fbdcsim/core/distributions.h"
#include "fbdcsim/core/rng.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/switching/switch.h"
#include "fbdcsim/topology/network.h"
#include "fbdcsim/topology/standard_fleet.h"

namespace {

using namespace fbdcsim;

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fired = 0;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule_at(core::TimePoint::from_nanos(i * 100), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorEventLoop);

/// Packet-hop-shaped load on the bucket being drained: 2048 sources each
/// reschedule themselves one frame serialization time ahead (64-1500 B at
/// 10 Gb/s: 51 ns to 1.2 us), so most schedules land in the 4.096 us
/// bucket the wheel is draining. Each event is one dispatch plus one
/// schedule_at; "time_per_hop" is the cost of that pair.
class DrainingBucketHops {
 public:
  static constexpr std::uint64_t kSources = 2048;

  DrainingBucketHops() {
    for (std::uint64_t id = 0; id < kSources; ++id) {
      schedule(0x9E3779B97F4A7C15ULL * (id + 1), id);
    }
  }

  sim::Simulator& sim() { return sim_; }
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  /// The scheduled callable: 48 bytes of capture, like the rack's Wire hops.
  struct Hop {
    DrainingBucketHops* self;
    std::uint64_t state;
    std::uint64_t id;
    std::uint64_t p0;
    std::uint64_t p1;
    std::uint64_t p2;
    void operator()() const {
      self->checksum_ ^= state ^ id ^ p0 ^ p1 ^ p2;
      std::uint64_t next = state;  // xorshift64: never reaches 0
      next ^= next << 13;
      next ^= next >> 7;
      next ^= next << 17;
      self->schedule(next, id);
    }
  };
  static_assert(sizeof(Hop) == 48);

  void schedule(std::uint64_t state, std::uint64_t id) {
    const auto frame_bytes = static_cast<std::int64_t>(64 + state % (1500 - 64 + 1));
    const auto serialization = core::Duration::nanos(frame_bytes * 8 / 10);
    sim_.schedule_after(serialization,
                        Hop{this, state, id, state >> 3, state + id, state * 3});
  }

  sim::Simulator sim_;
  std::uint64_t checksum_{0};
};

void BM_SimulatorDrainingBucketHops(benchmark::State& state) {
  DrainingBucketHops hops;
  sim::Simulator& sim = hops.sim();
  const std::uint64_t start = sim.executed_events();
  for (auto _ : state) {
    sim.run_until(sim.now() + core::Duration::micros(20));
  }
  benchmark::DoNotOptimize(hops.checksum());
  const auto events = static_cast<double>(sim.executed_events() - start);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["time_per_hop"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimulatorDrainingBucketHops);

void BM_RngStreamUniform(benchmark::State& state) {
  core::RngStream rng{static_cast<std::uint64_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngStreamUniform)->Arg(1);

/// A fork seeds a whole engine; the first draw then runs its first twist,
/// as every forked per-host or per-reporter stream does.
void BM_RngStreamFork(benchmark::State& state) {
  const core::RngStream root{static_cast<std::uint64_t>(state.range(0))};
  std::uint64_t index = 0;
  for (auto _ : state) {
    core::RngStream child = root.fork("fleet-host", index++);
    benchmark::DoNotOptimize(child.uniform());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngStreamFork)->Arg(1);

void BM_ZipfSample(benchmark::State& state) {
  core::Zipf zipf{static_cast<std::size_t>(state.range(0)), 1.0};
  core::RngStream rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1'000)->Arg(100'000);

void BM_LogNormalSample(benchmark::State& state) {
  core::LogNormal dist{175.0, 1.1};
  core::RngStream rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogNormalSample);

void BM_SwitchForwarding(benchmark::State& state) {
  sim::Simulator sim;
  switching::SwitchConfig cfg;
  cfg.num_ports = 20;
  std::int64_t delivered = 0;
  switching::SharedBufferSwitch sw{
      sim, cfg, [&delivered](std::size_t, const switching::SimPacket&) { ++delivered; }};
  switching::SimPacket pkt;
  pkt.header.frame_bytes = 200;
  std::size_t port = 0;
  for (auto _ : state) {
    sw.enqueue(port, pkt);
    port = (port + 1) % 20;
    sim.run_until(sim.now() + core::Duration::micros(1));
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchForwarding);

void BM_FlowTableAssembly(benchmark::State& state) {
  const auto fleet = topology::build_single_cluster_fleet(topology::ClusterType::kFrontend, 16, 8);
  core::RngStream rng{7};
  std::vector<core::PacketHeader> trace;
  trace.reserve(100'000);
  const core::Ipv4Addr self = fleet.hosts()[0].addr;
  for (int i = 0; i < 100'000; ++i) {
    core::PacketHeader pkt;
    pkt.timestamp = core::TimePoint::from_nanos(i * 1000);
    pkt.tuple = core::FiveTuple{
        self, fleet.hosts()[static_cast<std::size_t>(rng.uniform_int(1, 127))].addr,
        static_cast<core::Port>(40000 + rng.uniform_int(0, 499)), 80, core::Protocol::kTcp};
    pkt.payload_bytes = 200;
    pkt.frame_bytes = 254;
    trace.push_back(pkt);
  }
  for (auto _ : state) {
    const auto flows = analysis::FlowTable::outbound_flows(trace, self);
    benchmark::DoNotOptimize(flows.size());
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_FlowTableAssembly);

void BM_HeavyHitterExtraction(benchmark::State& state) {
  core::RngStream rng{9};
  std::unordered_map<std::uint64_t, double> bin;
  for (std::uint64_t k = 0; k < 500; ++k) bin[k] = rng.uniform(1.0, 1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::heavy_hitters_of(bin));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeavyHitterExtraction);

void BM_RouterPath(benchmark::State& state) {
  const auto fleet = topology::build_standard_fleet();
  const auto net = topology::FourPostBuilder{}.build(fleet);
  const topology::Router router{fleet, net};
  const core::HostId src{0};
  const core::HostId dst{static_cast<std::uint32_t>(fleet.num_hosts() - 1)};
  core::FiveTuple tuple{fleet.host(src).addr, fleet.host(dst).addr, 40000, 80,
                        core::Protocol::kTcp};
  for (auto _ : state) {
    tuple.src_port = static_cast<core::Port>(tuple.src_port + 1);
    benchmark::DoNotOptimize(router.route(src, dst, tuple));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterPath);

}  // namespace

BENCHMARK_MAIN();
