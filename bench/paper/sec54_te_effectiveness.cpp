// Section 5.4: how much traffic could a reactive heavy-hitter TE scheme
// actually treat? For each aggregation level and interval, the scheme
// "treats" the previous interval's heavy hitters; we report the fraction
// of bytes that ride treated keys, against the oracle (perfect-prediction)
// bound and Benson et al.'s 35% workability threshold.
#include <cstdio>

#include "fbdcsim/analysis/te_eval.h"
#include "paper.h"

namespace fbdcsim::paper {

namespace {

void print_panel(const char* name, const bench::RoleTrace& trace,
                 const analysis::AddrResolver& resolver) {
  std::printf("\n-- %s --\n", name);
  std::printf("%-6s %-7s  %10s  %10s  %8s  %s\n", "agg", "intvl", "predicted", "oracle",
              "treated", "workable(>=35%)");
  constexpr NamedBin kIntervals[] = {{"10-ms", core::Duration::millis(10)},
                                     {"100-ms", core::Duration::millis(100)},
                                     {"1-s", core::Duration::seconds(1)}};

  const core::Duration span = trace.result.capture_end - trace.result.capture_start;
  for (const NamedLevel& level : kAggLevels) {
    for (const auto& interval : kIntervals) {
      const auto eval = analysis::evaluate_reactive_te(
          trace.result.trace, trace.self, resolver, level.level, interval.bin,
          trace.result.capture_start, span);
      std::printf("%-6s %-7s  %9.1f%%  %9.1f%%  %8.1f  %s\n", level.name, interval.name,
                  eval.predicted_byte_coverage * 100.0, eval.oracle_byte_coverage * 100.0,
                  eval.mean_treated_keys, eval.meets_benson_threshold() ? "yes" : "no");
    }
  }
}

}  // namespace

void sec54_te_effectiveness(const PaperTraces& traces, Anchors& /*anchors*/) {
  print_panel("Web server", traces.web, traces.resolver());
  print_panel("Cache follower", traces.cache_follower, traces.resolver());

  std::printf(
      "\nPaper's conclusion: only rack-level heavy hitters over 100-ms-plus\n"
      "intervals reach Benson et al.'s 35%% predictability threshold for Web\n"
      "and cache servers; finer aggregations leave TE with little to act on\n"
      "despite the (by construction) >=50%% oracle bound.\n");
}

}  // namespace fbdcsim::paper
