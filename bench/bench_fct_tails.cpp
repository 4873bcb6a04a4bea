// FCT tail analytics across transport variants (DESIGN.md §14).
//
// The FlowLedger (FBDCSIM_OBS=flows) records one entry per directed
// transfer with its FCT and topology-derived ideal FCT; this bench turns
// those records into the tail view the paper's latency arguments live on:
// per-role p50/p99/p999 slowdown (FCT / ideal) under the NewReno, SACK and
// DCTCP variants, fault-free and under the heavy fault profile, with the
// scripted path's flow durations alongside as the no-transport baseline.
//
// Reading guide: fault-free, all variants should sit near slowdown 1 at
// p50 — transfers see an idle-ish network. Under the heavy profile's path
// loss, NewReno's one-hole-per-RTT repair and go-back-N timeouts stretch
// the tail; the SACK scoreboard repairs exactly the reported holes, so its
// p99 slowdown must not exceed NewReno's (the CI bench-smoke asserts
// exactly that on the fleet-merged extras below).
//
// Headlines land in the report's "extra" section
// (fct_p99_slowdown_<variant>_<faults>, plus per-role rows); the full
// per-cell quantile table lands in the report's "fct" section, and the
// SACK/heavy runs' ledgers in bench_fct_tails.flows.jsonl.
#include <array>
#include <cstdio>
#include <string>
#include <utility>

#include "common.h"
#include "fbdcsim/analysis/fct.h"
#include "fbdcsim/analysis/flow_table.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

using namespace fbdcsim;

namespace {

struct RoleRow {
  const char* name{};
  core::HostRole role{};
};

constexpr std::array<RoleRow, 3> kRoles{{
    {"Web", core::HostRole::kWeb},
    {"Cache-l", core::HostRole::kCacheLeader},
    {"Hadoop", core::HostRole::kHadoop},
}};

struct Variant {
  const char* name{};
  transport::CongestionControl cc{};
  transport::LossRecovery recovery{};
};

constexpr std::array<Variant, 3> kVariants{{
    {"newreno", transport::CongestionControl::kNewReno, transport::LossRecovery::kNewReno},
    {"sack", transport::CongestionControl::kNewReno, transport::LossRecovery::kSack},
    {"dctcp", transport::CongestionControl::kDctcp, transport::LossRecovery::kNewReno},
}};

/// Ledger ring size per capture. A 1-s TCP capture closes far more
/// transfers than any affordable ring holds (~1.5 KB/record), so the
/// quantiles below are over each run's most recent kLedgerCapacity
/// transfers — the same deterministic window for every variant, which is
/// what the cross-variant comparison needs.
constexpr std::size_t kLedgerCapacity = 16384;

workload::RackSimResult run_tcp_capture(const topology::Fleet& fleet, core::HostRole role,
                                        std::int64_t seconds, const Variant& variant,
                                        const faults::FaultPlan* plan) {
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, role, core::Duration::seconds(seconds));
  cfg.transport = workload::Transport::kTcp;
  cfg.tcp.cc = variant.cc;
  cfg.tcp.recovery = variant.recovery;
  cfg.faults = plan;
  // The ledger is this bench's entire subject: force the flows level on
  // (FBDCSIM_OBS may refine the other knobs) and size the ring for the
  // capture.
  cfg.obs = bench::obs_config();
  if (!cfg.obs.enabled()) cfg.obs.mode = telemetry::ObsConfig::Mode::kOn;
  cfg.obs.flows = true;
  if (cfg.obs.flow_capacity < kLedgerCapacity) cfg.obs.flow_capacity = kLedgerCapacity;
  workload::RackSimulation rack{fleet, cfg};
  return rack.run();
}

}  // namespace

int main() {
  bench::BenchReport report{"fct_tails"};
  bench::banner("FCT tails: per-role slowdown across transport variants",
                "Sections 5-7 (flow behavior under congestion and loss)");
  bench::BenchEnv env;
  const topology::Fleet& fleet = env.fleet();
  const std::int64_t seconds = bench::BenchEnv::effective_seconds(1);
  const faults::FaultPlan heavy{faults::heavy_profile()};

  // Merged-over-roles table per (variant, faults) — the headline extras and
  // the report's "fct" section come from the heavy SACK table plus these.
  analysis::FctTable fct_tables[kVariants.size()][2];

  for (const auto& [fault_name, plan] :
       {std::pair<const char*, const faults::FaultPlan*>{"off", nullptr},
        {"heavy", &heavy}}) {
    const int fault_idx = plan == nullptr ? 0 : 1;
    std::printf("\nFCT and slowdown per role, faults=%s:\n", fault_name);
    std::printf("%-8s %-9s %10s %10s %10s %8s %8s %8s %9s\n", "role", "variant",
                "fct_p50ms", "fct_p99ms", "fct_p999ms", "sd_p50", "sd_p99", "sd_p999",
                "transfers");
    for (const RoleRow& r : kRoles) {
      // Scripted baseline: no transport lifecycle exists, so the closest
      // observable is the mirrored trace's flow durations (Figure 7's
      // quantity). Slowdown is undefined for it by construction.
      {
        workload::RackSimConfig cfg = workload::default_rack_config(
            fleet, r.role, core::Duration::seconds(seconds));
        cfg.faults = plan;
        workload::RackSimulation rack{fleet, cfg};
        const workload::RackSimResult scripted = rack.run();
        const core::Ipv4Addr self = fleet.host(cfg.monitored_host).addr;
        core::Cdf durations_ms;
        for (const analysis::Flow& f :
             analysis::FlowTable::outbound_flows(scripted.trace, self)) {
          durations_ms.add(static_cast<double>(f.duration().count_nanos()) / 1e6);
        }
        std::printf("%-8s %-9s %10.3f %10.3f %10.3f %8s %8s %8s %9zu\n", r.name,
                    "scripted", durations_ms.empty() ? 0.0 : durations_ms.quantile(0.50),
                    durations_ms.empty() ? 0.0 : durations_ms.quantile(0.99),
                    durations_ms.empty() ? 0.0 : durations_ms.quantile(0.999), "-", "-",
                    "-", durations_ms.size());
      }
      for (std::size_t v = 0; v < kVariants.size(); ++v) {
        const Variant& variant = kVariants[v];
        const workload::RackSimResult result =
            run_tcp_capture(fleet, r.role, seconds, variant, plan);
        analysis::FctTable table;
        table.add_all(result.flows.records);
        const analysis::FctCell cell = table.overall();
        std::printf("%-8s %-9s %10.3f %10.3f %10.3f %8.3f %8.3f %8.3f %9lld\n", r.name,
                    variant.name, cell.fct_us.quantile(0.50) / 1e3,
                    cell.fct_us.quantile(0.99) / 1e3, cell.fct_us.quantile(0.999) / 1e3,
                    cell.slowdown.quantile(0.50), cell.slowdown.quantile(0.99),
                    cell.slowdown.quantile(0.999), static_cast<long long>(cell.count));
        report.add_extra(std::string{"fct_p99_slowdown_"} + variant.name + "_" +
                             fault_name + "_" + r.name,
                         cell.slowdown.quantile(0.99));
        fct_tables[v][fault_idx].add_all(result.flows.records);
        // Canonical ledger export: the SACK/heavy runs carry the richest
        // attribution stories (switch drops, path loss, recovery episodes)
        // without tripling the file with every variant.
        if (plan != nullptr && variant.recovery == transport::LossRecovery::kSack) {
          report.add_flows(result.flows);
        }
      }
    }
  }

  // Fleet-merged headlines per (variant, faults) — what the CI bench-smoke
  // asserts on: under heavy faults the SACK scoreboard's p99 slowdown must
  // not exceed NewReno's.
  std::printf("\nFleet-merged slowdown (all roles), per variant:\n");
  std::printf("%-9s %-7s %8s %8s %8s %10s %11s\n", "variant", "faults", "sd_p50", "sd_p99",
              "sd_p999", "completed", "incomplete");
  for (std::size_t v = 0; v < kVariants.size(); ++v) {
    for (const auto& [fault_name, fault_idx] :
         {std::pair<const char*, int>{"off", 0}, {"heavy", 1}}) {
      const analysis::FctTable& table = fct_tables[v][fault_idx];
      const analysis::FctCell cell = table.overall();
      std::printf("%-9s %-7s %8.3f %8.3f %8.3f %10lld %11lld\n", kVariants[v].name,
                  fault_name, cell.slowdown.quantile(0.50), cell.slowdown.quantile(0.99),
                  cell.slowdown.quantile(0.999), static_cast<long long>(table.completed()),
                  static_cast<long long>(table.incomplete()));
      const std::string key =
          std::string{"fct_p99_slowdown_"} + kVariants[v].name + "_" + fault_name;
      report.add_extra(key, cell.slowdown.quantile(0.99));
      report.add_extra(std::string{"fct_completed_"} + kVariants[v].name + "_" + fault_name,
                       table.completed());
    }
  }
  // The report's "fct" section: the heavy SACK table, per-cell quantiles —
  // the granularity aggregate_reports.py folds into the trajectory.
  report.add_fct(fct_tables[1][1].to_json());

  std::printf(
      "\nReading: fault-free p50 slowdowns should sit near 1 for every\n"
      "variant; under the heavy profile the sack rows must hold a p99\n"
      "slowdown at or below the newreno rows (hole-exact repair vs\n"
      "one-hole-per-RTT plus go-back-N timeouts).\n");
  return 0;
}
