// Flow-ledger explorer: the per-flow causal view of one capture.
//
// Where trace_explorer reads the mirrored packet headers, this tool reads
// the FlowLedger (FBDCSIM_OBS=flows): per-transfer lifecycle records with
// every retransmission linked back to the drop that caused it. It answers
// the questions an on-call engineer asks of a slow service — which flows
// hurt the most, what share of repair traffic each loss cause explains,
// and the full event timeline of one suspect flow.
//
// Usage:
//   flowtrace_explorer [--heavy] [--worst N] [--flow ID]
//                      [web|cache-f|cache-l|hadoop|multifeed|slb|db] [seconds]
//
// Runs a live TCP capture with the ledger on (add --heavy for the heavy
// fault profile, which makes the attribution stories non-trivial). Runs are
// seeded, so the same arguments reproduce the same capture.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "fbdcsim/analysis/fct.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

using namespace fbdcsim;

namespace {

core::HostRole parse_role(const char* name) {
  const std::string s{name};
  if (s == "web") return core::HostRole::kWeb;
  if (s == "cache-f") return core::HostRole::kCacheFollower;
  if (s == "cache-l") return core::HostRole::kCacheLeader;
  if (s == "hadoop") return core::HostRole::kHadoop;
  if (s == "multifeed") return core::HostRole::kMultifeed;
  if (s == "slb") return core::HostRole::kSlb;
  if (s == "db") return core::HostRole::kDatabase;
  std::fprintf(stderr, "unknown role '%s'\n", name);
  std::exit(1);
}

void print_worst(const std::vector<telemetry::FlowLedgerRecord>& records, int worst_n) {
  std::vector<const telemetry::FlowLedgerRecord*> completed;
  for (const telemetry::FlowLedgerRecord& r : records) {
    if (r.completed() && r.ideal_ns > 0) completed.push_back(&r);
  }
  std::sort(completed.begin(), completed.end(),
            [](const telemetry::FlowLedgerRecord* a, const telemetry::FlowLedgerRecord* b) {
              if (a->slowdown() != b->slowdown()) return a->slowdown() > b->slowdown();
              return a->id < b->id;  // deterministic tie-break
            });
  const std::size_t n = std::min<std::size_t>(completed.size(),
                                              static_cast<std::size_t>(worst_n));
  std::printf("\nWorst %zu transfers by slowdown (of %zu completed):\n", n,
              completed.size());
  std::printf("%7s %-3s %-8s %-8s %-15s %9s %11s %9s %4s %5s  %s\n", "id", "dir", "role",
              "peer", "locality", "bytes", "fct_us", "slowdown", "rtx", "drops", "tuple");
  for (std::size_t i = 0; i < n; ++i) {
    const telemetry::FlowLedgerRecord& r = *completed[i];
    std::printf("%7lld %-3s %-8s %-8s %-15s %9lld %11lld %9.2f %4lld %5lld  %s\n",
                static_cast<long long>(r.id), r.dir == 0 ? "out" : "in",
                core::to_string(r.role), core::to_string(r.peer_role),
                core::to_string(r.locality), static_cast<long long>(r.bytes),
                static_cast<long long>(r.fct_ns() / 1000), r.slowdown(),
                static_cast<long long>(r.rtx_total), static_cast<long long>(r.drops_total),
                r.tuple.to_string().c_str());
  }
}

void print_cause_breakdown(const std::vector<telemetry::FlowLedgerRecord>& records) {
  // Attribution ids are ledger-wide; build the id -> cause map across every
  // retained record, then charge each retransmission to its drop's cause.
  std::unordered_map<std::int64_t, telemetry::FlowDropCause> cause_of;
  std::int64_t drops_by_cause[3] = {0, 0, 0};
  for (const telemetry::FlowLedgerRecord& r : records) {
    for (std::size_t i = 0; i < r.drop_count; ++i) {
      cause_of.emplace(r.drops[i].id, r.drops[i].cause);
      ++drops_by_cause[static_cast<int>(r.drops[i].cause)];
    }
  }
  std::int64_t rtx_by_cause[3] = {0, 0, 0};
  std::int64_t unattributed = 0;
  std::int64_t evicted = 0;
  std::int64_t total_rtx = 0;
  std::int64_t by_kind[2] = {0, 0};
  for (const telemetry::FlowLedgerRecord& r : records) {
    for (std::size_t i = 0; i < r.rtx_count; ++i) {
      ++total_rtx;
      ++by_kind[static_cast<int>(r.rtxs[i].kind)];
      if (r.rtxs[i].cause_id < 0) {
        ++unattributed;
      } else if (const auto it = cause_of.find(r.rtxs[i].cause_id); it != cause_of.end()) {
        ++rtx_by_cause[static_cast<int>(it->second)];
      } else {
        ++evicted;  // the causing drop's record left the ring
      }
    }
  }
  std::printf("\nRetransmission causes (%lld retained rtx events; %lld dupack, %lld rto):\n",
              static_cast<long long>(total_rtx), static_cast<long long>(by_kind[0]),
              static_cast<long long>(by_kind[1]));
  for (int c = 0; c < 3; ++c) {
    std::printf("  %-14s %7lld rtx   (%lld drops observed)\n",
                telemetry::to_string(static_cast<telemetry::FlowDropCause>(c)),
                static_cast<long long>(rtx_by_cause[c]),
                static_cast<long long>(drops_by_cause[c]));
  }
  std::printf("  %-14s %7lld rtx   (ACK lost on the return path, or cause outside\n",
              "unattributed", static_cast<long long>(unattributed));
  std::printf("  %-14s %7s       the retained event window)\n", "", "");
  if (evicted > 0) {
    std::printf("  %-14s %7lld rtx\n", "cause-evicted", static_cast<long long>(evicted));
  }
}

void print_timeline(const std::vector<telemetry::FlowLedgerRecord>& records,
                    std::int64_t flow_id) {
  const telemetry::FlowLedgerRecord* rec = nullptr;
  for (const telemetry::FlowLedgerRecord& r : records) {
    if (r.id == flow_id) rec = &r;
  }
  if (rec == nullptr) {
    std::printf("\nflow %lld: not in the retained ring\n",
                static_cast<long long>(flow_id));
    return;
  }
  std::printf("\nTimeline of flow %lld (%s, %s -> %s, %s, %s):\n",
              static_cast<long long>(rec->id), rec->dir == 0 ? "out" : "in",
              core::to_string(rec->role), core::to_string(rec->peer_role),
              core::to_string(rec->locality), rec->tuple.to_string().c_str());
  struct Line {
    std::int64_t t_ns;
    int order;  // stable secondary sort: births before events at equal t
    std::string text;
  };
  std::vector<Line> lines;
  char buf[256];
  if (rec->conn_born_ns >= 0) {
    std::snprintf(buf, sizeof buf, "connection born (syn_sends=%lld, established=%lld ns)",
                  static_cast<long long>(rec->syn_sends),
                  static_cast<long long>(rec->established_ns));
    lines.push_back({rec->conn_born_ns, 0, buf});
  }
  std::snprintf(buf, sizeof buf,
                "transfer starts: %lld bytes demanded (ideal fct %lld us, rtt %lld us)",
                static_cast<long long>(rec->bytes),
                static_cast<long long>(rec->ideal_ns / 1000),
                static_cast<long long>(rec->rtt_ns / 1000));
  lines.push_back({rec->start_ns, 1, buf});
  for (std::size_t i = 0; i < rec->drop_count; ++i) {
    const telemetry::FlowDropEvent& d = rec->drops[i];
    std::snprintf(buf, sizeof buf,
                  "drop #%lld: seq %lld+%lld, %s (switch %llu port %d, fault_epoch %lld)%s",
                  static_cast<long long>(d.id), static_cast<long long>(d.seq),
                  static_cast<long long>(d.len), telemetry::to_string(d.cause),
                  static_cast<unsigned long long>(d.switch_id), d.port,
                  static_cast<long long>(d.fault_epoch),
                  d.claimed ? "" : " [never claimed]");
    lines.push_back({d.t_ns, 2, buf});
  }
  for (std::size_t i = 0; i < rec->rtx_count; ++i) {
    const telemetry::FlowRtxEvent& x = rec->rtxs[i];
    std::snprintf(buf, sizeof buf, "rtx (%s): seq %lld+%lld <- cause drop #%lld",
                  telemetry::to_string(x.kind), static_cast<long long>(x.seq),
                  static_cast<long long>(x.len), static_cast<long long>(x.cause_id));
    lines.push_back({x.t_ns, 3, buf});
  }
  for (std::size_t i = 0; i < rec->episode_count; ++i) {
    const telemetry::FlowEpisode& e = rec->episodes[i];
    std::snprintf(buf, sizeof buf, "episode %s: [%lld, %lld] ns (detail %lld)",
                  telemetry::to_string(e.kind), static_cast<long long>(e.start_ns),
                  static_cast<long long>(e.end_ns), static_cast<long long>(e.detail));
    lines.push_back({e.start_ns, 4, buf});
  }
  if (rec->completed()) {
    std::snprintf(buf, sizeof buf, "completed: fct %lld us, slowdown %.2f (%lld/%lld rtx bytes)",
                  static_cast<long long>(rec->fct_ns() / 1000), rec->slowdown(),
                  static_cast<long long>(rec->rtx_bytes),
                  static_cast<long long>(rec->bytes));
    lines.push_back({rec->completed_ns, 5, buf});
  } else {
    lines.push_back({rec->start_ns, 6, "never completed (run or connection ended first)"});
  }
  std::stable_sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
    return a.order < b.order;
  });
  for (const Line& l : lines) {
    std::printf("  %14.6f ms  %s\n", static_cast<double>(l.t_ns) / 1e6, l.text.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool heavy = false;
  int worst_n = 10;
  std::int64_t flow_id = -1;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--heavy") == 0) {
      heavy = true;
    } else if (std::strcmp(argv[i], "--worst") == 0 && i + 1 < argc) {
      worst_n = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--flow") == 0 && i + 1 < argc) {
      flow_id = std::atoll(argv[++i]);
    } else {
      positional.push_back(argv[i]);
    }
  }

  const core::HostRole role =
      !positional.empty() ? parse_role(positional[0]) : core::HostRole::kCacheLeader;
  const std::int64_t seconds = positional.size() > 1 ? std::atoll(positional[1]) : 5;
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, role, core::Duration::seconds(seconds));
  cfg.transport = workload::Transport::kTcp;
  cfg.obs.mode = telemetry::ObsConfig::Mode::kOn;
  cfg.obs.flows = true;
  cfg.obs.flow_capacity = 65536;
  const faults::FaultPlan plan{faults::heavy_profile()};
  if (heavy) cfg.faults = &plan;
  workload::RackSimulation sim{fleet, cfg};
  const workload::RackSimResult result = sim.run();
  std::printf("=== %s host, %lld s TCP capture, faults=%s ===\n", core::to_string(role),
              static_cast<long long>(seconds), heavy ? "heavy" : "off");

  const std::vector<telemetry::FlowLedgerRecord>& records = result.flows.records;
  const std::int64_t total = result.flows.total;
  std::int64_t completed = 0;
  for (const telemetry::FlowLedgerRecord& r : records) completed += r.completed() ? 1 : 0;
  std::printf("transfers: %zu retained of %lld closed; %lld completed, %zu incomplete\n",
              records.size(), static_cast<long long>(total),
              static_cast<long long>(completed), records.size() - completed);
  if (records.empty()) {
    std::printf("no ledger records (no transfer closed, or the build has "
                "FBDCSIM_TELEMETRY=OFF)\n");
    return 0;
  }

  print_worst(records, worst_n);
  print_cause_breakdown(records);
  if (flow_id >= 0) print_timeline(records, flow_id);
  return 0;
}
