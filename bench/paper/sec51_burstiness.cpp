// Section 5.1: "regardless of flow size or length, flows tend to be
// internally bursty" — most flows are active only in distinct
// millisecond-scale intervals with large gaps. Reports per-flow duty
// cycles (fraction of the flow's lifetime with any packet, 1-ms bins) and
// packet-train statistics (Kapoor et al.) for cache and Web hosts.
#include <cstdio>

#include "fbdcsim/analysis/burstiness.h"
#include "paper.h"

namespace fbdcsim::paper {

namespace {

/// Prints one panel and returns its median per-flow duty cycle.
double print_panel(const char* name, const bench::RoleTrace& trace) {
  const auto duty = analysis::flow_duty_cycles(trace.result.trace, trace.self);
  std::printf("\n-- %s --\n", name);
  bench::print_cdf("per-flow duty cycle (active 1-ms bins / lifetime bins)", duty);

  const auto trains = analysis::packet_trains(trace.result.trace, trace.self);
  std::printf("packet trains (gap > 20 us ends a train): %zu trains\n",
              trains.packets_per_train.size());
  std::printf("  packets/train: med %.0f p90 %.0f | bytes/train: med %.0f p90 %.0f\n",
              trains.packets_per_train.median(), trains.packets_per_train.p90(),
              trains.bytes_per_train.median(), trains.bytes_per_train.p90());
  std::printf("  inter-train gap: med %.0f us, p90 %.0f us\n",
              trains.gap_between_trains_us.median(), trains.gap_between_trains_us.p90());
  return duty.median();
}

}  // namespace

void sec51_burstiness(const PaperTraces& traces, Anchors& anchors) {
  check(anchors, "5.1", "Cache flows internally bursty (median duty < 25%)", 0, 25,
        print_panel("Cache follower", traces.cache_follower) * 100.0);
  print_panel("Web server", traces.web);

  std::printf(
      "\nPaper's claim: flows transmit in distinct millisecond-scale active\n"
      "intervals with large gaps (low duty cycles), regardless of flow size —\n"
      "which is why instantaneously heavy flows are rarely heavy over longer\n"
      "periods (Figures 10/11).\n");
}

}  // namespace fbdcsim::paper
