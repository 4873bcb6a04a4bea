// The ablation run's shared types (bench_ablations.cpp).
//
// Each ablation switches off one mechanism the paper credits for a finding,
// or sweeps one design parameter, and states its contrast as anchors
// (bench::check_contrast): the changed run must differ from its baseline
// by at least a stated factor in a stated direction, so an ablation that
// changes nothing fails.
//
// Rack-level ablations ask one shared grid for their captures. The grid
// runs each distinct capture once, all of them as one batch on the pool,
// and reduces each inside its task to the numbers the tables read, so no
// trace outlives its task. Fleet-level work (the sampling-rate and
// oversubscription sweeps, the fault-tolerance fleet run) happens when its
// ablation runs, after the grid, one ablation at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "fbdcsim/transport/mux.h"
#include "fbdcsim/workload/rack_sim.h"

namespace fbdcsim::ablations {

/// What a capture changes in its role's default rack config.
enum class Change : std::uint8_t {
  kNone,
  kNoPooling,        ///< every cache get opens and closes its own connection
  kNoLoadBalancing,  ///< Zipf-skewed follower choice instead of key routing
  kNoMitigation,     ///< hot objects surge unmitigated
  kTcp,              ///< the flow-level TCP engine (NewReno) instead of scripted
  kIncastBuffer,     ///< Web rack on a 32-KB buffer at 4x rate, DT alpha = dt_alpha
};

/// One rack capture of the grid.
struct Capture {
  core::HostRole role{};
  std::int64_t seconds{};
  Change change{Change::kNone};
  faults::Profile faults{faults::Profile::kOff};
  /// Dynamic-threshold alpha (kIncastBuffer only).
  double dt_alpha{0.0};

  bool operator==(const Capture&) const = default;
};

/// The baselines two ablations share, with windows chosen from data
/// (EXPERIMENTS.md, "Ablations"):
/// - Web, 2 s: connection pooling and the fault-tolerance capture-loss
///   column. Without pooling a Web host opens ~13,500 connections/s; 2 s
///   stays inside the 32,768 ephemeral ports, so no 5-tuple is reused. At
///   8 s the port counter wraps and reused tuples merge into "flows" that
///   span seconds.
/// - Cache follower, 10 s: load balancing and hot objects. Surges start 3
///   times per 60 s. The first one of the seed-42 run falls inside 10 s
///   (at 5 s both columns stay within 2x of median over 99% of the time),
///   and 20-s captures with the unmitigated surge in flight alongside would
///   exceed the old hot-object bench's peak RSS.
inline constexpr Capture kWebBaseline{.role = core::HostRole::kWeb, .seconds = 2};
inline constexpr Capture kCacheFollowerBaseline{.role = core::HostRole::kCacheFollower,
                                                .seconds = 10};

/// The numbers the tables read from one capture. Each reducer fills the
/// part its ablation reads.
struct Summary {
  struct Buffer {
    double median_occ{0};
    double max_occ{0};
    std::int64_t drops{0};
    std::int64_t tx_packets{0};
  } buffer;
  struct Pooling {
    double long_flow_pct{0};  // flows spanning >= half the capture
    double syn_per_sec{0};
    double flows_total{0};
  } pooling;
  struct Balance {
    double host_flow_spread{0};  // p90/p10 of per-dest-host flow sizes
    double rack_hh_persist_p50{0};
    double rack_hh_count_p50{0};
  } balance;
  struct Stability {
    double within_2x_pct{0};
    double significant_change_pct{0};
    double rate_cv{0};  // coefficient of variation of total per-second rate
  } stability;
  struct Faults {
    std::int64_t capture_dropped{0};
    transport::TransportMux::Stats tcp;
  } faults;
};

/// One finished capture, as a reducer sees it.
struct Captured {
  const bench::BenchEnv& env;
  const workload::RackSimulation& rack;
  const bench::RoleTrace& trace;
};

/// Reduces a finished capture to the part of its Summary one ablation reads.
using Reduce = void (*)(const Captured& captured, Summary& out);

/// Every rack capture the ablations read, each once.
class Grid {
 public:
  /// Asks for `capture` reduced by `reduce`. A capture asked for twice runs
  /// once, with both reducers.
  void need(const Capture& capture, Reduce reduce);

  /// Runs every capture on the env's pool, reducing each inside its task.
  void run(bench::BenchEnv& env);

  [[nodiscard]] const Summary& at(const Capture& capture) const;
  [[nodiscard]] std::size_t size() const { return cells_.size(); }

 private:
  struct Cell {
    Capture capture;
    std::vector<Reduce> reduce;
    Summary summary;
  };
  std::vector<Cell> cells_;
};

/// What an ablation's tables read besides the grid.
struct Context {
  bench::BenchEnv& env;
  const Grid& grid;
  bench::BenchReport& report;
};

/// An ablation: `plan` asks the grid for its rack captures (nullptr when it
/// has none); `body` prints its tables and appends its anchors.
struct Ablation {
  const char* heading;
  void (*plan)(Grid& grid);
  void (*body)(const Context& ctx, bench::Anchors& anchors);
};

void buffer_policy_plan(Grid& grid);
void buffer_policy(const Context& ctx, bench::Anchors& anchors);
void conn_pooling_plan(Grid& grid);
void conn_pooling(const Context& ctx, bench::Anchors& anchors);
void fault_tolerance_plan(Grid& grid);
void fault_tolerance(const Context& ctx, bench::Anchors& anchors);
void hot_objects_plan(Grid& grid);
void hot_objects(const Context& ctx, bench::Anchors& anchors);
void load_balancing_plan(Grid& grid);
void load_balancing(const Context& ctx, bench::Anchors& anchors);
void oversubscription(const Context& ctx, bench::Anchors& anchors);
void sampling_rate(const Context& ctx, bench::Anchors& anchors);

}  // namespace fbdcsim::ablations
