// Figure 8: per-destination-rack flow rates and their stability.
//   (a) Hadoop: per-second per-rack rate distributions vary over orders of
//       magnitude from second to second.
//   (b) Cache follower: each second's distribution is tight and nearly
//       identical to the next (load balancing at work).
//   (c) Cache follower rates normalized to each rack's median: ~90% of
//       samples within a factor of two (the paper's stability headline).
#include <algorithm>
#include <cstdio>

#include "fbdcsim/analysis/packet_stats.h"
#include "paper.h"

namespace fbdcsim::paper {

namespace {

void print_per_second_spread(const char* name, const analysis::PerRackRates& rates) {
  std::printf("\n-- %s: per-second distribution of per-rack rates (KB/s) --\n", name);
  std::printf("%4s  %10s %10s %10s %12s\n", "sec", "p10", "p50", "p90", "max/min");
  const std::size_t seconds = rates.seconds;
  for (std::size_t sec = 0; sec < std::min<std::size_t>(seconds, 20); ++sec) {
    core::Cdf cdf;
    for (const auto& series : rates.bytes_per_sec) {
      if (series[sec] > 0) cdf.add(series[sec]);
    }
    if (cdf.empty()) continue;
    std::printf("%4zu  %10.2f %10.2f %10.2f %12.1f\n", sec, cdf.p10() / 1e3,
                cdf.median() / 1e3, cdf.p90() / 1e3,
                cdf.min() > 0 ? cdf.max() / cdf.min() : 0.0);
  }
}

}  // namespace

void fig8_rate_stability(const PaperTraces& traces, Anchors& anchors) {
  // The paper uses 120 1-s intervals.
  const bench::RoleTrace& hadoop = traces.hadoop;
  const auto hadoop_rates = analysis::per_rack_second_rates(
      hadoop.result.trace, hadoop.self, traces.resolver(), hadoop.result.capture_start,
      hadoop.result.capture_end - hadoop.result.capture_start);
  print_per_second_spread("(a) Hadoop", hadoop_rates);
  const auto hadoop_stability = analysis::rate_stability(hadoop_rates);

  const bench::RoleTrace& cache = traces.cache_follower;
  const auto cache_rates = analysis::per_rack_second_rates(
      cache.result.trace, cache.self, traces.resolver(), cache.result.capture_start,
      cache.result.capture_end - cache.result.capture_start);
  print_per_second_spread("(b) Cache follower", cache_rates);

  // (c) stability: normalized-to-median CDF over all racks.
  const auto stability = analysis::rate_stability(cache_rates);
  check(anchors, "5.2", "Cache per-rack rates within 2x of median ~90% of time", 80, 100,
        stability.within_2x_of_median * 100.0);
  core::Cdf normalized;
  for (const auto& series : stability.normalized) {
    for (const double v : series) normalized.add(v);
  }
  std::printf("\n-- (c) Cache follower: per-rack rate / rack median --\n");
  bench::print_cdf("rate normalized to rack median", normalized);
  std::printf("\nwithin 2x of median: cache %.1f%% (paper ~90%%), hadoop %.1f%%\n",
              stability.within_2x_of_median * 100.0,
              hadoop_stability.within_2x_of_median * 100.0);
  std::printf("'significant change' (>20%% deviation): cache %.1f%% (paper ~45%%)\n",
              stability.significant_change * 100.0);
}

}  // namespace fbdcsim::paper
