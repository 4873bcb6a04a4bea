// Ablation: shared-buffer admission policy. Compares dynamic-threshold
// sharing (various alpha) against static per-port partitioning, reporting
// drops and occupancy. Static partitioning is emulated with a small alpha
// (each queue is capped near buffer/ports regardless of what the rest of
// the switch is doing).
//
// The Web rack runs on the transport bench's incast config (32-KB buffer,
// service mix at 4x rate), where the buffer binds: on a 512-KB buffer at
// the nominal rate the maximum occupancy stays near 6%, below even the
// static cap, and every policy prints the same row.
#include <algorithm>
#include <cstdio>

#include "ablations.h"

namespace fbdcsim::ablations {
namespace {

constexpr struct {
  const char* name;
  double alpha;
} kPolicies[] = {
    {"static partition (a=0.06)", 0.0625},  // ~buffer/16 per port
    {"conservative DT (a=0.5)", 0.5},
    {"standard DT (a=1)", 1.0},
    {"aggressive DT (a=2)", 2.0},
    {"unrestricted (a=16)", 16.0},
};

constexpr Capture policy_capture(double alpha) {
  return {.role = core::HostRole::kWeb,
          .seconds = 1,
          .change = Change::kIncastBuffer,
          .dt_alpha = alpha};
}

void reduce(const Captured& captured, Summary& out) {
  const workload::RackSimResult& result = captured.trace.result;
  Summary::Buffer& b = out.buffer;
  core::Cdf medians;
  for (const auto& s : result.buffer_seconds) {
    medians.add(s.median_fraction);
    b.max_occ = std::max(b.max_occ, s.max_fraction);
  }
  b.median_occ = medians.median();
  b.drops = result.uplink.dropped_packets + result.downlinks.dropped_packets;
  b.tx_packets = result.uplink.tx_packets + result.downlinks.tx_packets;
}

}  // namespace

void buffer_policy_plan(Grid& grid) {
  for (const auto& p : kPolicies) grid.need(policy_capture(p.alpha), &reduce);
}

void buffer_policy(const Context& ctx, bench::Anchors& anchors) {
  std::printf("\nWeb rack, 32KB shared buffer, service mix at 4x rate, 1-s window:\n");
  std::printf("%-26s  %12s  %9s  %9s  %12s\n", "policy", "median.occ", "max.occ", "drops",
              "drop rate");
  for (const auto& p : kPolicies) {
    const Summary::Buffer& r = ctx.grid.at(policy_capture(p.alpha)).buffer;
    std::printf("%-26s  %12.4f  %9.3f  %9lld  %11.4f%%\n", p.name, r.median_occ, r.max_occ,
                static_cast<long long>(r.drops),
                r.tx_packets > 0
                    ? static_cast<double>(r.drops) /
                          static_cast<double>(r.drops + r.tx_packets) * 100.0
                    : 0.0);
  }
  const auto drops = [&ctx](double alpha) {
    return static_cast<double>(ctx.grid.at(policy_capture(alpha)).buffer.drops);
  };
  bench::check_contrast(anchors, "6.3",
                        "Static partitioning drops what DT (a=1) absorbs (drops)", drops(1.0),
                        drops(0.0625), 10.0, bench::Direction::kUp);
}

}  // namespace fbdcsim::ablations
