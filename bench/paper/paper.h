// The paper run's shared types (bench_paper.cpp).
//
// bench_paper captures each monitored role once, then runs every rack-trace
// table and figure over those four traces. A figure is a plain function: it
// prints its table to stdout and appends the anchors — the paper's
// quantitative prose claims, each with an accepted band — whose quantity it
// prints.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "fbdcsim/analysis/heavy_hitters.h"

namespace fbdcsim::paper {

/// One prose claim: the paper section it comes from, the band we accept
/// (paper value with a generous tolerance — we reproduce shapes, not
/// testbeds), and the measured value.
struct Anchor {
  std::string section;
  std::string claim;
  double lo;
  double hi;
  double measured;

  [[nodiscard]] bool pass() const { return measured >= lo && measured <= hi; }
};

using Anchors = std::vector<Anchor>;

inline void check(Anchors& anchors, std::string section, std::string claim, double lo,
                  double hi, double measured) {
  anchors.push_back(Anchor{std::move(section), std::move(claim), lo, hi, measured});
}

/// The four role captures every figure reads, and the fleet they ran on.
struct PaperTraces {
  const bench::BenchEnv& env;
  bench::RoleTrace web;
  bench::RoleTrace cache_follower;
  bench::RoleTrace cache_leader;
  bench::RoleTrace hadoop;

  [[nodiscard]] const topology::Fleet& fleet() const { return env.fleet(); }
  [[nodiscard]] const analysis::AddrResolver& resolver() const { return env.resolver(); }
};

/// A trace under the name one table or figure prints for it.
struct NamedTrace {
  const char* name;
  const bench::RoleTrace* trace;
};

/// The aggregation levels and bin widths the heavy-hitter figures sweep.
struct NamedLevel {
  const char* name;
  analysis::AggLevel level;
};
inline constexpr NamedLevel kAggLevels[] = {{"flows", analysis::AggLevel::kFlow},
                                            {"hosts", analysis::AggLevel::kHost},
                                            {"racks", analysis::AggLevel::kRack}};
struct NamedBin {
  const char* name;
  core::Duration bin;
};
inline constexpr NamedBin kHhBins[] = {{"1-ms", core::Duration::millis(1)},
                                       {"10-ms", core::Duration::millis(10)},
                                       {"100-ms", core::Duration::millis(100)}};

/// A table or figure over the paper traces.
using Figure = void (*)(const PaperTraces& traces, Anchors& anchors);

void table1_baseline_contrast(const PaperTraces& traces, Anchors& anchors);
void table2_service_breakdown(const PaperTraces& traces, Anchors& anchors);
void table4_heavy_hitters(const PaperTraces& traces, Anchors& anchors);
void fig4_locality_timeseries(const PaperTraces& traces, Anchors& anchors);
void fig6_flow_sizes(const PaperTraces& traces, Anchors& anchors);
void fig7_flow_durations(const PaperTraces& traces, Anchors& anchors);
void fig8_rate_stability(const PaperTraces& traces, Anchors& anchors);
void fig9_cache_host_flows(const PaperTraces& traces, Anchors& anchors);
void fig10_hh_stability(const PaperTraces& traces, Anchors& anchors);
void fig11_hh_intersection(const PaperTraces& traces, Anchors& anchors);
void fig12_packet_sizes(const PaperTraces& traces, Anchors& anchors);
void fig13_arrival_pattern(const PaperTraces& traces, Anchors& anchors);
void fig14_syn_interarrival(const PaperTraces& traces, Anchors& anchors);
void fig16_concurrent_racks(const PaperTraces& traces, Anchors& anchors);
void fig17_concurrent_hh_racks(const PaperTraces& traces, Anchors& anchors);
void sec51_burstiness(const PaperTraces& traces, Anchors& anchors);
void sec54_te_effectiveness(const PaperTraces& traces, Anchors& anchors);

}  // namespace fbdcsim::paper
