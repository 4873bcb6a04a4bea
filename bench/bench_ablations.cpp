// The ablation run: every design-choice ablation in one binary, each
// stating its contrast as anchors.
//
// Seven ablations (DESIGN.md §3) each switch off one mechanism the paper
// credits for a finding, or sweep one design parameter: load balancing,
// connection pooling, hot-object mitigation, the Fbflow sampling rate, the
// shared-buffer policy, oversubscription and fault injection. The rack
// captures they read run first, as one deduplicated grid on the pool; then
// each ablation prints its tables under its heading, in table order, and
// appends its anchors. The run ends with the anchor table. Exit code is the
// number of failed anchors, so a vacuous ablation fails.
//
// Every capture length and fleet horizon is a constant of its ablation,
// chosen from data; FBDCSIM_BENCH_SECONDS does not apply. Ablation bodies
// live in bench/ablations/.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "ablations/ablations.h"
#include "fbdcsim/faults/fault_plan.h"

using namespace fbdcsim;

namespace fbdcsim::ablations {

void Grid::need(const Capture& capture, Reduce reduce) {
  const auto cell = std::find_if(cells_.begin(), cells_.end(),
                                 [&capture](const Cell& c) { return c.capture == capture; });
  if (cell == cells_.end()) {
    cells_.push_back(Cell{capture, {reduce}, {}});
  } else if (std::find(cell->reduce.begin(), cell->reduce.end(), reduce) ==
             cell->reduce.end()) {
    cell->reduce.push_back(reduce);
  }
}

const Summary& Grid::at(const Capture& capture) const {
  for (const Cell& cell : cells_) {
    if (cell.capture == capture) return cell.summary;
  }
  throw std::out_of_range{"ablation grid: capture was never planned"};
}

namespace {

workload::RackSimConfig config_for(const topology::Fleet& fleet, const Capture& c,
                                   const faults::FaultPlan& light,
                                   const faults::FaultPlan& heavy) {
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, c.role, core::Duration::seconds(c.seconds));
  if (c.faults == faults::Profile::kLight) cfg.faults = &light;
  if (c.faults == faults::Profile::kHeavy) cfg.faults = &heavy;
  switch (c.change) {
    case Change::kNone:
      break;
    case Change::kNoPooling:
      cfg.mix.connection_pooling_enabled = false;
      break;
    case Change::kNoLoadBalancing:
      cfg.mix.load_balancing_enabled = false;
      break;
    case Change::kNoMitigation:
      cfg.mix.hot_objects.mitigation_enabled = false;
      break;
    case Change::kTcp:
      cfg.transport = workload::Transport::kTcp;
      cfg.tcp.recovery = transport::LossRecovery::kNewReno;
      break;
    case Change::kIncastBuffer:
      // The transport bench's incast config: a 32-KB shared pool with the
      // service mix pushed past the drain rate, where the admission policy
      // binds. Only the monitored host is mirrored, into a token capture
      // buffer: the switch counters and the occupancy sampler are the
      // whole result.
      cfg.mirror_whole_rack = false;
      cfg.background_rate_scale = 1.0;
      cfg.sample_buffer = true;
      cfg.capture_memory_bytes = 64;
      cfg.seed = 99;
      cfg.rsw.buffer_total = core::DataSize::kilobytes(32);
      cfg.rsw.dt_alpha = c.dt_alpha;
      cfg.mix = workload::scale_rates(cfg.mix, 4.0);
      break;
  }
  return cfg;
}

}  // namespace

void Grid::run(bench::BenchEnv& env) {
  const faults::FaultPlan light{faults::light_profile()};
  const faults::FaultPlan heavy{faults::heavy_profile()};
  const topology::Fleet& fleet = env.fleet();
  const std::vector<Summary> summaries = env.pool().parallel_map(cells_, [&](const Cell& cell) {
    const workload::RackSimConfig cfg = config_for(fleet, cell.capture, light, heavy);
    workload::RackSimulation rack{fleet, cfg};
    const bench::RoleTrace trace{cell.capture.role, cfg.monitored_host,
                                 fleet.host(cfg.monitored_host).addr, rack.run()};
    Summary summary;
    for (const Reduce reduce : cell.reduce) reduce(Captured{env, rack, trace}, summary);
    return summary;
  });
  for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i].summary = summaries[i];
}

}  // namespace fbdcsim::ablations

namespace {

/// Every ablation, in print order, under its heading.
constexpr ablations::Ablation kAblations[] = {
    {"Load balancing: user-request load balancing on vs off (Section 5.2)",
     &ablations::load_balancing_plan, &ablations::load_balancing},
    {"Connection pooling on vs off (Section 5.1)", &ablations::conn_pooling_plan,
     &ablations::conn_pooling},
    {"Hot-object mitigation on vs off (Section 5.2)", &ablations::hot_objects_plan,
     &ablations::hot_objects},
    {"Fbflow sampling-rate sweep vs locality-matrix fidelity (Section 3.3.1)", nullptr,
     &ablations::sampling_rate},
    {"Shared-buffer admission policy: DT alpha sweep (Section 6.3)",
     &ablations::buffer_policy_plan, &ablations::buffer_policy},
    {"RSW->CSW oversubscription sweep (Section 4.4)", nullptr, &ablations::oversubscription},
    {"Paper-anchor metrics under fault-injection profiles (Sections 3.3, 4.3, 5.1, 5.3)",
     &ablations::fault_tolerance_plan, &ablations::fault_tolerance},
};

}  // namespace

int main() {
  bench::BenchReport report{"ablations"};
  bench::banner("Ablations: each mechanism behind a finding, switched off, contrast checked",
                "Sections 3.3, 4.4, 5.1-5.3 and 6.3");
  bench::BenchEnv env;
  std::string headings;
  for (const ablations::Ablation& a : kAblations) {
    headings += std::string{headings.empty() ? "" : "|"} + a.heading;
  }
  report.add_extra("ablations", headings);

  // The rack captures first, each once, so their peak memory never
  // overlaps a fleet sweep's.
  ablations::Grid grid;
  for (const ablations::Ablation& a : kAblations) {
    if (a.plan != nullptr) a.plan(grid);
  }
  grid.run(env);
  report.add_extra("rack_captures", static_cast<std::int64_t>(grid.size()));

  bench::Anchors anchors;
  const ablations::Context ctx{env, grid, report};
  for (const ablations::Ablation& a : kAblations) {
    std::printf("\n=== %s ===\n", a.heading);
    a.body(ctx, anchors);
  }
  const int failed = bench::print_anchors(anchors);
  report.set_status(failed);
  return failed;
}
