// Flow-completion-time tail analytics over FlowLedger records.
//
// The ledger (telemetry/flow_ledger.h) records one entry per directed
// transfer; this module aggregates completed transfers into per-
// role x locality x size-bucket FCT and slowdown CDFs — the view the
// paper's tail-latency arguments (and bench_ablation_transport's
// comparison of transport variants) are built on. Slowdown = FCT / ideal FCT, where the
// ideal is the record's topology-derived base RTT plus its bytes at the
// bottleneck rate; 1.0 is a transfer that saw an idle network.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "fbdcsim/core/flow.h"
#include "fbdcsim/core/stats.h"
#include "fbdcsim/telemetry/flow_ledger.h"

namespace fbdcsim::analysis {

inline constexpr int kNumFctRoles = 8;  // one per core::HostRole
inline constexpr int kNumFctSizeBuckets = 4;

/// Transfer size class: 0 = <=4 KB (RPC-scale), 1 = <=64 KB, 2 = <=1 MB,
/// 3 = larger (Hadoop-scale bulk).
[[nodiscard]] int fct_size_bucket(std::int64_t bytes);
/// Stable short name per bucket: "le4k", "le64k", "le1m", "gt1m".
[[nodiscard]] const char* fct_size_bucket_name(int bucket);

/// One aggregation cell: completed-transfer FCTs (microseconds) and
/// slowdowns.
struct FctCell {
  core::Cdf fct_us;
  core::Cdf slowdown;
  std::int64_t count{0};
  std::int64_t bytes{0};

  void merge(const FctCell& other) {
    fct_us.merge(other.fct_us);
    slowdown.merge(other.slowdown);
    count += other.count;
    bytes += other.bytes;
  }
};

/// role x locality x size-bucket FCT table. Incomplete records (the run
/// ended or the connection was torn down mid-transfer) are counted but
/// contribute no samples — a tail analysis over truncated FCTs would be
/// survivorship-biased the other way.
class FctTable {
 public:
  void add(const telemetry::FlowLedgerRecord& record);
  void add_all(std::span<const telemetry::FlowLedgerRecord> records);

  [[nodiscard]] const FctCell& cell(core::HostRole role, core::Locality locality,
                                    int size_bucket) const;
  /// All cells of one role merged (the bench headline granularity).
  [[nodiscard]] FctCell role_cell(core::HostRole role) const;
  /// Every completed transfer in one CDF pair.
  [[nodiscard]] FctCell overall() const;

  [[nodiscard]] std::int64_t completed() const { return completed_; }
  [[nodiscard]] std::int64_t incomplete() const { return incomplete_; }

  /// Deterministic JSON object for the BenchReport "fct" section: counts
  /// plus one entry per non-empty cell, in (role, locality, bucket) index
  /// order, each with count/bytes and p50/p90/p99/p999 of both CDFs.
  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] static std::size_t index(int role, int locality, int bucket) {
    return (static_cast<std::size_t>(role) * core::kNumLocalities +
            static_cast<std::size_t>(locality)) *
               kNumFctSizeBuckets +
           static_cast<std::size_t>(bucket);
  }

  std::array<FctCell, kNumFctRoles * core::kNumLocalities * kNumFctSizeBuckets> cells_{};
  std::int64_t completed_{0};
  std::int64_t incomplete_{0};
};

}  // namespace fbdcsim::analysis
