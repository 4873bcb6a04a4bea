// One benchmark job: runs one workload once, in this process, and prints one
// JSON line with its phase timings, exact counts, output checks, and a digest
// of the simulated output. perfbench/run.py drives it, one process per job,
// so process-wide state (ru_maxrss, the global MetricsRegistry) never carries
// from one job into the next.
//
//   perfbench_job --workload web_rack_tcp --seed 1 [--trace 0|1]
//                 [--threads N] [--length X] [--setup-only] [--cpu N]
//
// --setup-only exits after set-up (fleet build and constructors), so the
// driver can sample setup_s more often than it can afford whole jobs.
// Every timing is taken here, around calls into the library's public API;
// the library itself is not instrumented for the benchmark. With --trace 1
// the job also records a span per call and times a sample of the
// high-frequency FbflowPipeline::offer_flow calls.
//
// Before set-up and after the timed work the job runs a fixed reference
// kernel that uses no library code, and reports its mean time as
// ref_kernel_s. The driver divides every job time by it, so a job that ran
// while the host's CPU was slow is scaled back to a reference speed. With
// --cpu the main thread, which runs the kernel, the simulation and the
// fleet's consuming sink, stays on that one CPU; pool workers do not.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fbdcsim/analysis/fct.h"
#include "fbdcsim/analysis/flow_table.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/monitoring/fbflow.h"
#include "fbdcsim/runtime/sharded_fleet.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/telemetry/metrics.h"
#include "fbdcsim/transport/mux.h"
#include "fbdcsim/workload/fleet_flows.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

using namespace fbdcsim;

namespace {

using Clock = std::chrono::steady_clock;

/// Start of set-up: after the first reference-kernel run.
Clock::time_point g_setup_start = Clock::now();

/// Keeps the reference kernel's results observable, so it is not optimized out.
volatile std::uint64_t g_kernel_sink = 0;

/// The CPUs the process may use, and the one the main thread is pinned to
/// (-1: not pinned).
cpu_set_t g_allowed_cpus;
int g_main_cpu = -1;

void pin_main_thread() {
  if (g_main_cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(g_main_cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    std::fprintf(stderr, "perfbench_job: cannot pin to CPU %d\n", g_main_cpu);
    std::exit(2);
  }
}

double since_start(Clock::time_point t) {
  return std::chrono::duration<double>(t - g_setup_start).count();
}

/// The reference kernel: a sort and a small discrete-event loop (a binary
/// heap of timed events, each updating a hash map and scheduling the next),
/// so it stresses the caches, branch predictor and allocator the way the
/// simulator does. It is fixed benchmark code, so its time moves only with
/// the host. Returns its wall time in seconds.
double reference_kernel_s() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 16;
  };
  std::vector<std::uint32_t> keys(1U << 19);
  for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(next());
  std::sort(keys.begin(), keys.end());

  struct Event {
    std::uint64_t at;
    std::uint32_t flow;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<std::uint32_t, std::uint64_t> flows;
  for (std::uint32_t i = 0; i < 50000; ++i) events.push(Event{i * 7ULL, i});
  for (int n = 0; n < 300000; ++n) {
    const Event e = events.top();
    events.pop();
    const std::uint64_t r = next();
    const auto flow = static_cast<std::uint32_t>((e.flow * 2654435761U + (r >> 24)) & 0x1ffff);
    flows[flow] += e.at;
    events.push(Event{e.at + 1 + (r & 1023), flow});
  }
  g_kernel_sink = keys[keys.size() / 2] + flows.size() + events.top().at;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Spans recorded around library calls: name, parent, start, end (seconds
/// since set-up start). Disabled recorders keep nothing, so an untraced
/// job pays only for the phase marks it needs for end-to-end metrics.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent{-1};
    double start_s{0};
    double end_s{0};
  };

  explicit Spans(bool enabled) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  int open(std::string name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::move(name), current_, since_start(Clock::now()), 0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_s = since_start(Clock::now());
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  /// A child of the current span whose duration was estimated rather than
  /// measured end to end (sampled high-frequency calls). It is laid out
  /// from the parent's start so self-time arithmetic stays interval-based.
  void add_estimated(std::string name, double seconds) {
    if (!enabled_ || current_ < 0) return;
    const double start = spans_[static_cast<std::size_t>(current_)].start_s;
    spans_.push_back(Span{std::move(name), current_, start, start + seconds});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration of the first span with this name; 0 if none was recorded.
  [[nodiscard]] double seconds(std::string_view name) const {
    for (const Span& s : spans_) {
      if (s.name == name) return s.end_s - s.start_s;
    }
    return 0.0;
  }

 private:
  bool enabled_;
  int current_{-1};
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Spans& spans, std::string name) : spans_{spans}, index_{spans.open(std::move(name))} {}
  ~Scope() { spans_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int index_;
};

/// 64-bit FNV-1a over whole words: cheap, deterministic, order-sensitive.
class Digest {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ULL;
  }
  void mix_i(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix_d(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix_tuple(const core::FiveTuple& t) {
    mix(t.src_ip.value());
    mix(t.dst_ip.value());
    mix(static_cast<std::uint64_t>(t.src_port) << 32 | t.dst_port);
    mix(static_cast<std::uint64_t>(t.protocol));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{1469598103934665603ULL};
};

/// Output checks: invariants that hold for any seed plus the vacuity checks
/// that prove the workload's mechanism fired. The digest comparison is
/// made by the driver, which knows the recorded digests.
class Checks {
 public:
  void expect(const char* name, bool ok) { results_.emplace_back(name, ok); }
  [[nodiscard]] const std::vector<std::pair<std::string, bool>>& results() const {
    return results_;
  }

 private:
  std::vector<std::pair<std::string, bool>> results_;
};

/// Per-layer values, in insertion order.
class Layers {
 public:
  void set(std::string name, double value) { values_.emplace_back(std::move(name), value); }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& values() const {
    return values_;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

struct JobResult {
  double ref_kernel_s{0};  // mean of the reference-kernel runs around the job
  double setup_s{0};
  double wall_s{0};
  double sim_phase_s{0};
  double sim_seconds{0};  // simulated time advanced in the simulate phase
  std::int64_t flows{0};
  std::uint64_t digest{0};
  Checks checks;
  Layers layers;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t counter_or_zero(const telemetry::Snapshot& snap, std::string_view name) {
  const auto* c = snap.counter(name);
  return c != nullptr ? c->value : 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------- racks ---

struct RackSpec {
  core::HostRole role;
  workload::Transport transport;
  transport::LossRecovery recovery;
  bool heavy_faults;
  bool ledger;
  /// Pins every Hadoop node of the rack to its shuffle (busy) phase. The
  /// model's phases last tens of seconds, so a seconds-long run would
  /// otherwise be all-busy or all-quiet depending on the seed.
  bool always_busy;
  double capture_s;
  double warmup_s;
};

constexpr std::size_t kLedgerCapacity = 16384;

void digest_rack(Digest& d, const workload::RackSimResult& r,
                 const transport::TransportMux* mux) {
  d.mix_i(static_cast<std::int64_t>(r.trace.size()));
  for (const core::PacketHeader& h : r.trace) {
    d.mix_i(h.timestamp.count_nanos());
    d.mix_tuple(h.tuple);
    d.mix_i(h.frame_bytes);
    d.mix_i(h.payload_bytes);
    d.mix(static_cast<std::uint64_t>(h.flags.syn) | static_cast<std::uint64_t>(h.flags.ack) << 1 |
          static_cast<std::uint64_t>(h.flags.fin) << 2 |
          static_cast<std::uint64_t>(h.flags.rst) << 3 |
          static_cast<std::uint64_t>(h.flags.psh) << 4 |
          static_cast<std::uint64_t>(h.flags.ece) << 5);
  }
  for (const switching::PortCounters* c : {&r.uplink, &r.downlinks}) {
    d.mix_i(c->tx_packets);
    d.mix_i(c->tx_bytes);
    d.mix_i(c->enqueued_packets);
    d.mix_i(c->dropped_packets);
    d.mix_i(c->dropped_bytes);
    d.mix_i(c->ecn_marked_packets);
  }
  d.mix_i(r.capture_dropped);
  d.mix(r.events);
  if (mux != nullptr) {
    const transport::TransportMux::Stats& s = mux->stats();
    for (const std::int64_t v :
         {s.connections_created, s.connections_destroyed, s.handshakes_completed,
          s.handshake_failures, s.segments_sent, s.retransmit_segments, s.fast_retransmits,
          s.rto_fired, s.path_loss_drops, s.switch_drop_notifications, s.bytes_demanded,
          s.bytes_delivered, s.bytes_retransmitted, s.rtx_dupack_segments, s.rtx_rto_segments,
          s.sack_blocks_recorded, s.sack_bytes, s.sack_retransmits, s.sack_rescue_retransmits,
          s.ecn_ce_segments, s.ecn_echoed_acks, s.dctcp_cwnd_reductions}) {
      d.mix_i(v);
    }
  }
  d.mix_i(r.flows.total);
  d.mix_i(static_cast<std::int64_t>(r.flows.records.size()));
  for (const telemetry::FlowLedgerRecord& f : r.flows.records) {
    for (const std::int64_t v :
         {f.id, static_cast<std::int64_t>(f.flow_tag), static_cast<std::int64_t>(f.dir),
          static_cast<std::int64_t>(f.role), static_cast<std::int64_t>(f.peer_role),
          static_cast<std::int64_t>(f.locality), f.conn_born_ns, f.syn_sends, f.established_ns,
          f.start_ns, f.completed_ns, f.bytes, f.rtx_bytes, f.rtt_ns, f.bottleneck_bps,
          f.ideal_ns, f.drops_total, f.rtx_total, f.rto_count, f.ecn_reductions}) {
      d.mix_i(v);
    }
    d.mix_tuple(f.tuple);
  }
}

JobResult run_rack(const RackSpec& spec, std::uint64_t seed, bool setup_only, Spans& spans) {
  JobResult out;
  const Clock::time_point t_setup0 = g_setup_start;
  std::unique_ptr<topology::Fleet> fleet;
  {
    const Scope s{spans, "topology.build_rack_experiment_fleet"};
    fleet = std::make_unique<topology::Fleet>(workload::build_rack_experiment_fleet());
  }
  const faults::FaultPlan heavy{faults::heavy_profile()};
  workload::RackSimConfig cfg = workload::default_rack_config(
      *fleet, spec.role, core::Duration::from_seconds(spec.capture_s));
  cfg.warmup = core::Duration::from_seconds(spec.warmup_s);
  cfg.seed = seed;
  cfg.transport = spec.transport;
  cfg.tcp.recovery = spec.recovery;
  if (spec.heavy_faults) cfg.faults = &heavy;
  if (spec.always_busy) {
    cfg.mix.hadoop.quiet_period_mean = core::Duration::nanos(1);
    cfg.mix.hadoop.busy_period_mean = core::Duration::hours(1);
  }
  if (spec.ledger) {
    cfg.obs.mode = telemetry::ObsConfig::Mode::kOn;
    cfg.obs.flows = true;
    cfg.obs.flow_capacity = kLedgerCapacity;
  }
  std::unique_ptr<workload::RackSimulation> rack;
  {
    const Scope s{spans, "workload.RackSimulation"};
    rack = std::make_unique<workload::RackSimulation>(*fleet, cfg);
  }
  const Clock::time_point t_run0 = Clock::now();
  out.setup_s = seconds_between(t_setup0, t_run0);
  if (setup_only) return out;

  const int run_span = spans.open("run");
  workload::RackSimResult result;
  {
    const Scope s{spans, "sim.RackSimulation::run"};
    result = rack->run();
  }
  const Clock::time_point t_sim1 = Clock::now();
  std::vector<analysis::Flow> flows;
  {
    const Scope s{spans, "analysis.FlowTable::all_flows"};
    flows = analysis::FlowTable::all_flows(result.trace);
  }
  analysis::FctTable fct;
  if (spec.ledger) {
    const Scope s{spans, "analysis.FctTable::add_all"};
    fct.add_all(result.flows.records);
  }
  const Clock::time_point t_done = Clock::now();
  spans.close(run_span);

  out.sim_phase_s = seconds_between(t_run0, t_sim1);
  out.wall_s = seconds_between(t_run0, t_done);
  out.sim_seconds = (cfg.warmup + cfg.capture).to_seconds();
  out.flows = static_cast<std::int64_t>(flows.size());

  const transport::TransportMux* mux = rack->transport_mux();
  Digest d;
  digest_rack(d, result, mux);
  out.digest = d.value();

  // ---- checks that hold for any seed ----
  Checks& c = out.checks;
  const bool sorted = std::is_sorted(
      result.trace.begin(), result.trace.end(),
      [](const core::PacketHeader& a, const core::PacketHeader& b) {
        return a.timestamp < b.timestamp;
      });
  c.expect("trace_sorted", sorted);
  c.expect("trace_in_capture_window",
           result.trace.empty() || (result.trace.front().timestamp >= result.capture_start &&
                                    result.trace.back().timestamp < result.capture_end));
  c.expect("uplink_tx_le_enqueued", result.uplink.tx_packets <= result.uplink.enqueued_packets);
  c.expect("downlink_tx_le_enqueued",
           result.downlinks.tx_packets <= result.downlinks.enqueued_packets);
  const telemetry::Snapshot snap = telemetry::MetricsRegistry::global().snapshot();
  const std::int64_t events_heap = counter_or_zero(snap, "sim.events_heap");
  c.expect("sim_events_heap_zero", events_heap == 0);
  c.expect("trace_nonempty", !result.trace.empty());
  if (mux != nullptr) {
    c.expect("bytes_delivered_le_demanded",
             mux->stats().bytes_delivered <= mux->stats().bytes_demanded);
  }
  if (spec.ledger) {
    c.expect("ledger_completed_plus_incomplete",
             fct.completed() + fct.incomplete() ==
                 static_cast<std::int64_t>(result.flows.records.size()));
  }

  // ---- vacuity: the workload's mechanism fired ----
  if (spec.transport == workload::Transport::kScripted) {
    c.expect("scripted_has_no_transport_mux", mux == nullptr);
  } else {
    c.expect("transport_mux_present", mux != nullptr);
  }
  if (cfg.mirror_whole_rack) {
    const topology::Rack& rk = fleet->rack(fleet->host(cfg.monitored_host).rack);
    std::set<std::uint32_t> rack_addrs;
    for (const core::HostId h : rk.hosts) rack_addrs.insert(fleet->host(h).addr.value());
    std::set<std::uint32_t> seen;
    for (const core::PacketHeader& h : result.trace) {
      if (rack_addrs.count(h.tuple.src_ip.value()) != 0) seen.insert(h.tuple.src_ip.value());
      if (rack_addrs.count(h.tuple.dst_ip.value()) != 0) seen.insert(h.tuple.dst_ip.value());
    }
    c.expect("whole_rack_trace", seen.size() > 1);
  }
  if (mux != nullptr && spec.role == core::HostRole::kWeb) {
    c.expect("handshakes_fired", mux->stats().handshakes_completed > 0);
  }
  if (spec.heavy_faults) {
    c.expect("retransmits_fired", mux != nullptr && mux->stats().retransmit_segments > 0);
    c.expect("rto_fired", mux != nullptr && mux->stats().rto_fired > 0);
    c.expect("path_loss_fired", mux != nullptr && mux->stats().path_loss_drops > 0);
  }
  if (spec.ledger) c.expect("ledger_records_fired", !result.flows.records.empty());

  // ---- per-layer counts (exact) and derived ratios ----
  if (spans.enabled()) {
    Layers& l = out.layers;
    const auto span_s = [&spans](std::string_view name) { return spans.seconds(name); };
    const double run_s = span_s("sim.RackSimulation::run");
    l.set("topology.fleet_build_s", span_s("topology.build_rack_experiment_fleet"));
    l.set("workload.ctor_s", span_s("workload.RackSimulation"));
    l.set("sim.run_s", run_s);
    l.set("sim.events", static_cast<double>(result.events));
    l.set("sim.events_heap", static_cast<double>(events_heap));
    l.set("sim.ns_per_event", ratio(run_s * 1e9, static_cast<double>(result.events)));
    const auto delivered = static_cast<double>(counter_or_zero(snap, "switch.delivered_packets"));
    l.set("switching.delivered_packets", delivered);
    l.set("switching.dropped_packets",
          static_cast<double>(counter_or_zero(snap, "switch.dropped_packets")));
    l.set("switching.ns_per_packet", ratio(run_s * 1e9, delivered));
    if (mux != nullptr) {
      const auto& s = mux->stats();
      l.set("transport.segments", static_cast<double>(s.segments_sent));
      l.set("transport.connections", static_cast<double>(s.connections_created));
      l.set("transport.handshakes", static_cast<double>(s.handshakes_completed));
      l.set("transport.retransmits", static_cast<double>(s.retransmit_segments));
      l.set("transport.rto_fired", static_cast<double>(s.rto_fired));
      l.set("transport.rtx_ratio", ratio(static_cast<double>(s.retransmit_segments),
                                         static_cast<double>(s.segments_sent)));
      l.set("transport.delivered_ratio", ratio(static_cast<double>(s.bytes_delivered),
                                               static_cast<double>(s.bytes_demanded)));
      l.set("faults.path_loss_drops", static_cast<double>(s.path_loss_drops));
    }
    l.set("monitoring.trace_packets", static_cast<double>(result.trace.size()));
    l.set("monitoring.capture_dropped", static_cast<double>(result.capture_dropped));
    l.set("analysis.flow_table_s", span_s("analysis.FlowTable::all_flows"));
    l.set("analysis.fct_s", span_s("analysis.FctTable::add_all"));
    l.set("analysis.flows", static_cast<double>(flows.size()));
    l.set("telemetry.ledger_records", static_cast<double>(result.flows.records.size()));
    l.set("core.arena_bytes", static_cast<double>(counter_or_zero(snap, "arena.bytes")));
  }
  return out;
}

// ---------------------------------------------------------------- fleet ---

/// One FbflowPipeline::offer_flow call in this many is timed; the sampled
/// total is scaled up. Timing every call would put two clock reads on the
/// consumer's hot path, which is the path the metric is meant to observe.
constexpr std::int64_t kOfferSampleEvery = 64;

/// Median cost of one Clock::now() call, subtracted from every sampled
/// offer_flow timing (each sample brackets the call with two reads).
Clock::duration clock_read_cost() {
  std::vector<Clock::duration> d(1001);
  for (auto& v : d) {
    const Clock::time_point a = Clock::now();
    v = Clock::now() - a;
  }
  std::nth_element(d.begin(), d.begin() + 500, d.end());
  return d[500];
}

void digest_locality(Digest& d, const monitoring::ScubaTable::LocalityBytes& b) {
  for (const double v : b.bytes) d.mix_d(v);
}

JobResult run_fleet(std::uint64_t seed, double horizon_h, int threads, bool setup_only,
                    Spans& spans) {
  JobResult out;
  const Clock::time_point t_setup0 = g_setup_start;
  std::unique_ptr<topology::Fleet> fleet;
  {
    const Scope s{spans, "topology.build_fleet_experiment_fleet"};
    fleet = std::make_unique<topology::Fleet>(workload::build_fleet_experiment_fleet());
  }
  workload::FleetGenConfig cfg;
  cfg.horizon = core::Duration::from_seconds(horizon_h * 3600.0);
  cfg.epoch = core::Duration::minutes(30);
  cfg.seed = seed;
  cfg.rate_scale = 0.005;
  std::unique_ptr<workload::FleetFlowGenerator> gen;
  std::unique_ptr<monitoring::FbflowPipeline> fbflow;
  {
    const Scope s{spans, "workload.FleetFlowGenerator"};
    gen = std::make_unique<workload::FleetFlowGenerator>(*fleet, cfg);
    fbflow = std::make_unique<monitoring::FbflowPipeline>(
        *fleet, monitoring::kDefaultSamplingRate, core::RngStream{seed}.fork("fbflow", 0));
  }
  std::unique_ptr<runtime::ThreadPool> pool;
  {
    const Scope s{spans, "runtime.ThreadPool"};
    // Workers inherit the creating thread's affinity: give them every CPU.
    sched_setaffinity(0, sizeof g_allowed_cpus, &g_allowed_cpus);
    pool = std::make_unique<runtime::ThreadPool>(threads);
    pin_main_thread();
  }
  const Clock::time_point t_run0 = Clock::now();
  out.setup_s = seconds_between(t_setup0, t_run0);
  if (setup_only) return out;

  const int run_span = spans.open("run");
  std::int64_t flows = 0;
  std::int64_t bytes = 0;
  std::int64_t sampled_calls = 0;
  Clock::duration sampled_time{};
  double stream_s = 0;
  {
    const Scope s{spans, "runtime.ShardedFleetRunner::stream"};
    const Clock::time_point t0 = Clock::now();
    const runtime::ShardedFleetRunner runner{*gen, *pool};
    monitoring::FbflowPipeline& pipeline = *fbflow;
    if (spans.enabled()) {
      runner.stream([&](const core::FlowRecord& flow) {
        if (flows % kOfferSampleEvery == 0) {
          const Clock::time_point a = Clock::now();
          pipeline.offer_flow(flow);
          sampled_time += Clock::now() - a;
          ++sampled_calls;
        } else {
          pipeline.offer_flow(flow);
        }
        ++flows;
        bytes += flow.bytes.count_bytes();
      });
    } else {
      runner.stream([&](const core::FlowRecord& flow) {
        pipeline.offer_flow(flow);
        ++flows;
        bytes += flow.bytes.count_bytes();
      });
    }
    stream_s = seconds_between(t0, Clock::now());
    if (sampled_calls > 0) {
      const Clock::duration net = sampled_time - sampled_calls * clock_read_cost();
      spans.add_estimated("monitoring.FbflowPipeline::offer_flow",
                          std::max(0.0, std::chrono::duration<double>(net).count()) *
                              static_cast<double>(flows) / static_cast<double>(sampled_calls));
    }
  }
  {
    // Workers record their busy time when the pool shuts down.
    const Scope s{spans, "runtime.ThreadPool::~ThreadPool"};
    pool.reset();
  }
  const Clock::time_point t_sim1 = Clock::now();

  const monitoring::ScubaTable& scuba = fbflow->scuba();
  const std::int64_t rate = fbflow->sampling_rate();
  Digest d;
  {
    const Scope s{spans, "monitoring.ScubaTable queries"};
    // Table 3: locality by source cluster type, plus the bottom-row shares.
    digest_locality(d, scuba.locality_bytes(rate));
    for (const topology::ClusterType type :
         {topology::ClusterType::kHadoop, topology::ClusterType::kFrontend,
          topology::ClusterType::kService, topology::ClusterType::kCache,
          topology::ClusterType::kDatabase}) {
      digest_locality(d, scuba.locality_bytes_for_cluster_type(*fleet, type, rate));
    }
    for (const auto& [type, b] : scuba.bytes_by_cluster_type(*fleet, rate)) {
      d.mix(static_cast<std::uint64_t>(type));
      d.mix_d(b);
    }
    // Figure 5: rack matrices of the first Hadoop and Frontend clusters of
    // datacenter 0, and that datacenter's cluster matrix.
    core::ClusterId hadoop_cluster, frontend_cluster;
    for (const auto& cl : fleet->clusters()) {
      if (cl.datacenter.value() != 0) continue;
      if (cl.type == topology::ClusterType::kHadoop && !hadoop_cluster.is_valid()) {
        hadoop_cluster = cl.id;
      }
      if (cl.type == topology::ClusterType::kFrontend && !frontend_cluster.is_valid()) {
        frontend_cluster = cl.id;
      }
    }
    for (const auto& m : {scuba.rack_matrix(*fleet, hadoop_cluster, rate),
                          scuba.rack_matrix(*fleet, frontend_cluster, rate),
                          scuba.cluster_matrix(*fleet, core::DatacenterId{0}, rate)}) {
      for (const auto& row : m) {
        for (const double v : row) d.mix_d(v);
      }
    }
  }
  const Clock::time_point t_done = Clock::now();
  spans.close(run_span);

  out.sim_phase_s = seconds_between(t_run0, t_sim1);
  out.wall_s = seconds_between(t_run0, t_done);
  out.sim_seconds = cfg.horizon.to_seconds();
  out.flows = flows;

  d.mix_i(flows);
  d.mix_i(bytes);
  d.mix_i(static_cast<std::int64_t>(scuba.size()));
  for (const monitoring::TaggedSample& row : scuba.rows()) {
    d.mix_i(row.sample.captured_at.count_nanos());
    d.mix_tuple(row.sample.tuple);
    d.mix_i(row.sample.frame_bytes);
    d.mix(row.sample.reporter.value());
    d.mix(static_cast<std::uint64_t>(row.locality));
    d.mix_i(row.minute);
  }
  out.digest = d.value();

  const telemetry::Snapshot snap = telemetry::MetricsRegistry::global().snapshot();
  const std::int64_t registry_flows = counter_or_zero(snap, "fleet.flows");
  const std::int64_t offered = counter_or_zero(snap, "fbflow.flows_offered");
  const auto* busy = snap.histogram("runtime.pool.worker_busy_us");

  Checks& c = out.checks;
  c.expect("flows_nonempty", flows > 0);
  c.expect("registry_flows_match_stream", registry_flows == flows);
  c.expect("every_flow_offered", offered == flows);
  c.expect("scuba_rows_fired", scuba.size() > 0);
  // More than one worker busy: the busy-time sum exceeds its largest part.
  c.expect("more_than_one_worker_busy",
           threads < 2 || (busy != nullptr && busy->count >= 2 &&
                           busy->sum > static_cast<double>(busy->max)));

  if (spans.enabled()) {
    Layers& l = out.layers;
    const auto span_s = [&spans](std::string_view name) { return spans.seconds(name); };
    const double offer_s = span_s("monitoring.FbflowPipeline::offer_flow");
    const double busy_s = busy != nullptr ? busy->sum / 1e6 : 0.0;
    const auto* wait = snap.histogram("runtime.pool.task_wait_us");
    l.set("topology.fleet_build_s", span_s("topology.build_fleet_experiment_fleet"));
    l.set("workload.ctor_s", span_s("workload.FleetFlowGenerator"));
    l.set("workload.fleet_flows", static_cast<double>(registry_flows));
    l.set("monitoring.fbflow_offer_s", offer_s);
    l.set("monitoring.fbflow_flows_offered", static_cast<double>(offered));
    l.set("monitoring.scuba_rows", static_cast<double>(scuba.size()));
    l.set("monitoring.sample_yield",
          ratio(static_cast<double>(scuba.size()), static_cast<double>(offered)));
    l.set("monitoring.scuba_query_s", span_s("monitoring.ScubaTable queries"));
    l.set("runtime.stream_s", stream_s);
    l.set("runtime.consumer_wait_s", std::max(0.0, stream_s - offer_s));
    l.set("runtime.worker_busy_s", busy_s);
    l.set("runtime.task_wait_us_p50",
          wait != nullptr && wait->count > 0 ? wait->quantile(0.50) : 0.0);
    l.set("runtime.task_wait_us_p99",
          wait != nullptr && wait->count > 0 ? wait->quantile(0.99) : 0.0);
    l.set("runtime.parallel_efficiency", ratio(busy_s, threads * stream_s));
    l.set("analysis.flows", static_cast<double>(flows));
    l.set("core.arena_bytes", static_cast<double>(counter_or_zero(snap, "arena.bytes")));
  }
  return out;
}

// ----------------------------------------------------------------- main ---

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_job: %s\n"
               "usage: perfbench_job --workload NAME --seed N [--trace 0|1] [--threads N] "
               "[--length X] [--setup-only] [--cpu N]\n"
               "workloads: web_rack_tcp hadoop_rack_lossy cache_rack_scripted fleet_fbflow\n",
               why);
  std::exit(2);
}

double parse_double(const char* s, const char* flag) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0)) usage(flag);
  return v;
}

void print_json(const std::string& workload, std::uint64_t seed, int threads,
                const JobResult& r, const Spans& spans) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%d", workload.c_str(),
              static_cast<unsigned long long>(seed), threads);
  std::printf(",\"ref_kernel_s\":%.9f,\"setup_s\":%.9f,\"wall_s\":%.9f,\"sim_phase_s\":%.9f",
              r.ref_kernel_s, r.setup_s, r.wall_s, r.sim_phase_s);
  std::printf(",\"sim_seconds\":%.9f", r.sim_seconds);
  std::printf(",\"flows\":%lld,\"peak_rss_mb\":%.6f,\"digest\":\"%016llx\"",
              static_cast<long long>(r.flows), peak_rss_mb,
              static_cast<unsigned long long>(r.digest));
  std::printf(",\"checks\":{");
  const char* sep = "";
  for (const auto& [name, ok] : r.checks.results()) {
    std::printf("%s\"%s\":%s", sep, name.c_str(), ok ? "true" : "false");
    sep = ",";
  }
  std::printf("},\"layers\":{");
  sep = "";
  for (const auto& [name, value] : r.layers.values()) {
    std::printf("%s\"%s\":%.17g", sep, name.c_str(), value);
    sep = ",";
  }
  std::printf("},\"spans\":[");
  sep = "";
  for (const auto& s : spans.spans()) {
    std::printf("%s{\"name\":\"%s\",\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f}", sep,
                s.name.c_str(), s.parent, s.start_s, s.end_s);
    sep = ",";
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  double length = 0;  // 0 = the workload's default run length
  bool setup_only = false;
  const int hw = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  int threads = std::max(1, hw - 1);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage("bad --trace");
      trace = value[0] == '1';
    } else if (arg == "--threads") {
      threads = static_cast<int>(parse_double(value, "bad --threads"));
    } else if (arg == "--length") {
      length = parse_double(value, "bad --length");
    } else if (arg == "--cpu") {
      char* end = nullptr;
      const long cpu = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || cpu < 0 || cpu >= CPU_SETSIZE) usage("bad --cpu");
      g_main_cpu = static_cast<int>(cpu);
    } else {
      usage("unknown flag");
    }
  }
  if (!have_seed) usage("--seed required");

  sched_getaffinity(0, sizeof g_allowed_cpus, &g_allowed_cpus);
  pin_main_thread();
  const double ref_before_s = reference_kernel_s();
  g_setup_start = Clock::now();
  Spans spans{trace};
  JobResult result;
  if (workload == "web_rack_tcp") {
    result = run_rack({core::HostRole::kWeb, workload::Transport::kTcp,
                       transport::LossRecovery::kNewReno, false, false, false,
                       length > 0 ? length : 0.5, 0.5},
                      seed, setup_only, spans);
  } else if (workload == "hadoop_rack_lossy") {
    result = run_rack({core::HostRole::kHadoop, workload::Transport::kTcp,
                       transport::LossRecovery::kSack, true, true, true, length > 0 ? length : 1.0, 0.5},
                      seed, setup_only, spans);
  } else if (workload == "cache_rack_scripted") {
    result = run_rack({core::HostRole::kCacheFollower, workload::Transport::kScripted,
                       transport::LossRecovery::kNewReno, false, false, false,
                       length > 0 ? length : 0.5, 0.5},
                      seed, setup_only, spans);
  } else if (workload == "fleet_fbflow") {
    result = run_fleet(seed, length > 0 ? length : 24.0, threads, setup_only, spans);
  } else {
    usage("unknown --workload");
  }
  result.ref_kernel_s = (ref_before_s + reference_kernel_s()) / 2;
  print_json(workload, seed, workload == "fleet_fbflow" ? threads : 1, result, spans);
  return 0;
}
