// Ablation: disable hot-object mitigation (web-side caching of bursting
// objects + replication of sustained-hot shards, §5.2). With mitigation,
// cache load stays within a factor of two of its median ~90% of the time
// (Figure 8c); without it, surges run their full course and per-second
// rates swing widely.
#include <cstdio>

#include "ablations.h"
#include "fbdcsim/analysis/packet_stats.h"

namespace fbdcsim::ablations {
namespace {

constexpr Capture kMitigated = kCacheFollowerBaseline;
constexpr Capture kUnmitigated{.role = kCacheFollowerBaseline.role,
                               .seconds = kCacheFollowerBaseline.seconds,
                               .change = Change::kNoMitigation};

void reduce(const Captured& captured, Summary& out) {
  const bench::RoleTrace& trace = captured.trace;
  Summary::Stability& m = out.stability;
  const auto rates = analysis::per_rack_second_rates(
      trace.result.trace, trace.self, captured.env.resolver(), trace.result.capture_start,
      trace.result.capture_end - trace.result.capture_start);
  const auto stability = analysis::rate_stability(rates);
  m.within_2x_pct = stability.within_2x_of_median * 100.0;
  m.significant_change_pct = stability.significant_change * 100.0;

  core::OnlineStats per_sec;
  for (std::size_t sec = 0; sec < rates.seconds; ++sec) {
    double total = 0.0;
    for (const auto& series : rates.bytes_per_sec) total += series[sec];
    per_sec.add(total);
  }
  m.rate_cv = per_sec.mean() > 0 ? per_sec.stddev() / per_sec.mean() : 0.0;
}

}  // namespace

void hot_objects_plan(Grid& grid) {
  grid.need(kMitigated, &reduce);
  grid.need(kUnmitigated, &reduce);
}

void hot_objects(const Context& ctx, bench::Anchors& anchors) {
  const Summary::Stability& m_on = ctx.grid.at(kMitigated).stability;
  const Summary::Stability& m_off = ctx.grid.at(kUnmitigated).stability;

  std::printf("\n%-44s  %10s  %10s\n", "metric (cache follower)", "mitigated", "unmitigated");
  std::printf("%-44s  %9.1f%%  %9.1f%%\n", "per-rack rates within 2x of median",
              m_on.within_2x_pct, m_off.within_2x_pct);
  std::printf("%-44s  %9.1f%%  %9.1f%%\n", "'significant change' samples (>20%)",
              m_on.significant_change_pct, m_off.significant_change_pct);
  std::printf("%-44s  %10.3f  %10.3f\n", "total-rate coefficient of variation", m_on.rate_cv,
              m_off.rate_cv);
  bench::check_contrast(anchors, "5.2", "Mitigation off: per-rack rates leave 2x of median",
                        100.0 - m_on.within_2x_pct, 100.0 - m_off.within_2x_pct, 3.0,
                        bench::Direction::kUp);
  bench::check_contrast(anchors, "5.2", "Mitigation off: total rate swings (CV)", m_on.rate_cv,
                        m_off.rate_cv, 3.0, bench::Direction::kUp);
}

}  // namespace fbdcsim::ablations
