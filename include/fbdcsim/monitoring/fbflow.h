// Fbflow: the fleet-wide sampled packet-header monitoring pipeline
// (Section 3.3.1, Figure 3).
//
// Production Fbflow inserts an nflog target into every machine's iptables,
// samples packet headers at 1:30,000, streams parsed headers through Scribe
// to taggers that annotate rack/cluster/etc., and lands annotated records
// in Scuba (real-time, per-minute granularity) and Hive. This module
// reproduces that pipeline in-process:
//
//   PacketSampler / AnalyticSampler  ->  ScribeBus  ->  Tagger  ->  ScubaTable
//
// In a fleet run all of it executes on the one thread that consumes the
// flow stream, so every stage is kept cheap per flow and per row: the
// sampler is a template callable, Scribe only counts what it carries (the
// pipeline hands each published sample straight to its tagger), the tagger
// resolves addresses by index arithmetic (Fleet::host_by_addr), and the
// Scuba table grows its row block in place and keeps exact per-cluster-pair
// byte sums as rows land, so the locality and cluster queries never rescan
// the rows.
//
// PacketSampler does per-packet counting-based sampling (packet-level rack
// simulations); AnalyticSampler applies the statistically equivalent
// Poisson thinning to FlowRecords (fleet-level flow simulations), which is
// what makes 24-hour fleet runs tractable — the same reason the real system
// samples.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "fbdcsim/core/flow.h"
#include "fbdcsim/core/packet.h"
#include "fbdcsim/core/pod_vector.h"
#include "fbdcsim/core/rng.h"
#include "fbdcsim/core/time.h"
#include "fbdcsim/core/units.h"
#include "fbdcsim/topology/entities.h"

namespace fbdcsim::faults {
class FaultPlan;
}  // namespace fbdcsim::faults

namespace fbdcsim::monitoring {

/// Default production sampling rate (1:30,000).
inline constexpr std::int64_t kDefaultSamplingRate = 30'000;

/// A sampled header as emitted by a host agent: parsed header fields plus
/// the reporting machine and capture time (pre-annotation).
struct SampledPacket {
  core::TimePoint captured_at;
  core::FiveTuple tuple;
  std::int64_t frame_bytes{0};
  core::HostId reporter;  // machine whose agent sampled the packet
};

/// Counting sampler: selects every Nth packet with a per-host random phase,
/// the standard unbiased implementation of 1:N header sampling.
class PacketSampler {
 public:
  PacketSampler(std::int64_t rate, core::RngStream& rng);

  /// True if this packet is selected.
  [[nodiscard]] bool sample();

  [[nodiscard]] std::int64_t rate() const { return rate_; }

 private:
  std::int64_t rate_;
  std::int64_t countdown_;
};

/// Poisson thinning of a whole flow: statistically equivalent to running
/// PacketSampler over the flow's packets. Emits one SampledPacket per
/// selected packet, with timestamps uniform over the flow's lifetime.
class AnalyticSampler {
 public:
  AnalyticSampler(std::int64_t rate, core::RngStream rng) : rate_{rate}, rng_{rng} {}

  /// `emit` is any callable taking `const SampledPacket&`. It is a template
  /// parameter, not a std::function, because this runs once per fleet flow
  /// and almost every call selects nothing.
  template <typename Emit>
  void sample_flow(const core::FlowRecord& flow, Emit&& emit) {
    if (flow.packets <= 0) return;
    // Each of the flow's packets is selected independently with probability
    // 1/rate; the selected count is Binomial(n, 1/rate), approximated by
    // Poisson thinning (exact in distribution as rate grows; at 1:30,000 the
    // difference is negligible and the expectation is identical).
    const double expected = static_cast<double>(flow.packets) / static_cast<double>(rate_);
    const std::int64_t selected = rng_.poisson(expected);
    if (selected == 0) return;

    const std::int64_t mean_frame = core::wire::tcp_frame_bytes(
        flow.bytes.count_bytes() / std::max<std::int64_t>(1, flow.packets));
    for (std::int64_t i = 0; i < selected; ++i) {
      SampledPacket s;
      s.captured_at =
          flow.start + core::Duration::nanos(static_cast<std::int64_t>(
                           rng_.uniform() * static_cast<double>(flow.duration.count_nanos())));
      s.tuple = flow.tuple;
      s.frame_bytes = mean_frame;
      s.reporter = flow.src_host;
      emit(s);
    }
  }

  [[nodiscard]] std::int64_t rate() const { return rate_; }

 private:
  std::int64_t rate_;
  core::RngStream rng_;
};

/// Scribe's place in the pipeline. Publishing is where the fault plan
/// retries, drops and delays samples (FbflowPipeline); a sample that gets
/// through is counted here and handed by the pipeline to its tagger.
class ScribeBus {
 public:
  void publish() { ++published_; }

  [[nodiscard]] std::int64_t published() const { return published_; }

  /// Folds another bus's publish counter into this one (pipeline merge).
  void absorb_counters(const ScribeBus& other) { published_ += other.published_; }

 private:
  std::int64_t published_{0};
};

/// A fully annotated sample, as the taggers hand to Scuba/Hive.
struct TaggedSample {
  SampledPacket sample;
  core::HostId src_host;  // invalid if the address is unknown to the tagger
  core::HostId dst_host;
  core::HostRole src_role{core::HostRole::kService};
  core::HostRole dst_role{core::HostRole::kService};
  core::RackId src_rack;
  core::RackId dst_rack;
  core::ClusterId src_cluster;
  core::ClusterId dst_cluster;
  core::DatacenterId src_dc;
  core::DatacenterId dst_dc;
  core::Locality locality{core::Locality::kIntraRack};
  /// Graceful degradation: the tagger's topology lookup failed (injected
  /// fault), so the row landed without annotations. Partial rows are
  /// counted but excluded from every topology-keyed aggregate.
  bool partial{false};
  std::int64_t minute{0};  // capture minute (Scuba aggregation granularity)
};
// A fleet run lands millions of rows: `partial` sits in the padding after
// `locality` so a row is 88 bytes, not 96.
static_assert(sizeof(TaggedSample) <= 88);
static_assert(std::is_trivially_copyable_v<TaggedSample>);

/// Annotates samples with topology metadata by address lookup, exactly the
/// role of Fbflow's taggers.
class Tagger {
 public:
  explicit Tagger(const topology::Fleet& fleet) : fleet_{&fleet} {}

  /// Returns false if neither endpoint resolves to a fleet host.
  [[nodiscard]] bool tag(const SampledPacket& sample, TaggedSample& out) const;

 private:
  const topology::Fleet* fleet_;
};

/// An in-memory, append-only analytic table over tagged samples with the
/// aggregation queries the paper's analyses run in Scuba.
///
/// As rows land, the table also keeps the int64 sum of `frame_bytes` of its
/// non-partial rows per (source cluster, destination cluster, locality).
/// locality_bytes, locality_bytes_for_cluster_type, bytes_by_cluster_type
/// and cluster_matrix read those sums and multiply by the sampling rate
/// once, so they cost O(clusters^2) rather than a pass over every row.
/// Integer sums are exact and merge in any order. They equal the per-row
/// double sums they replace bit for bit while every estimated total stays
/// below 2^53 bytes (about 9e15). The 24 h fleet runs of the benches, at
/// rate_scale <= 0.01, estimate below 1e14 in total.
/// cluster_matrix places a row by its clusters' datacenter, which for a
/// tagged row is the row's own. A non-partial row with an invalid or
/// unknown source cluster counts toward locality_bytes, and makes the
/// cluster-type queries throw std::out_of_range, as a row scan would.
class ScubaTable {
 public:
  void add(const TaggedSample& row);

  /// Appends another table's rows (in their landed order) and adds its
  /// sums — the merge step when per-shard pipelines are combined after a
  /// parallel fleet run.
  void merge(const ScubaTable& other);

  [[nodiscard]] std::span<const TaggedSample> rows() const { return rows_; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }

  /// Estimated total bytes by locality (scaled by the sampling rate),
  /// optionally restricted to sources in one cluster type.
  struct LocalityBytes {
    double bytes[core::kNumLocalities]{};
    [[nodiscard]] double total() const;
    /// Percentage share of each locality bucket.
    [[nodiscard]] std::array<double, core::kNumLocalities> percentages() const;
  };
  [[nodiscard]] LocalityBytes locality_bytes(std::int64_t sampling_rate) const;
  [[nodiscard]] LocalityBytes locality_bytes_for_cluster_type(
      const topology::Fleet& fleet, topology::ClusterType type,
      std::int64_t sampling_rate) const;

  /// Estimated bytes grouped by source cluster type (Table 3 bottom row).
  [[nodiscard]] std::vector<std::pair<topology::ClusterType, double>> bytes_by_cluster_type(
      const topology::Fleet& fleet, std::int64_t sampling_rate) const;

  /// Rack-to-rack estimated byte matrix restricted to one cluster
  /// (Figure 5a/5b). Indexing is by position of the rack in the cluster.
  [[nodiscard]] std::vector<std::vector<double>> rack_matrix(const topology::Fleet& fleet,
                                                             core::ClusterId cluster,
                                                             std::int64_t sampling_rate) const;

  /// Cluster-to-cluster estimated byte matrix within one datacenter
  /// (Figure 5c).
  [[nodiscard]] std::vector<std::vector<double>> cluster_matrix(
      const topology::Fleet& fleet, core::DatacenterId dc, std::int64_t sampling_rate) const;

  /// Fleet-wide role-to-role estimated byte matrix (8x8, indexed by
  /// HostRole) — the fleet generalization of Table 2.
  [[nodiscard]] std::vector<std::vector<double>> role_matrix(
      std::int64_t sampling_rate) const;

  /// Estimated outbound bytes of one source host grouped by destination
  /// role (Table 2).
  [[nodiscard]] std::vector<std::pair<core::HostRole, double>> outbound_by_dest_role(
      core::HostId src, std::int64_t sampling_rate) const;

 private:
  using LocalitySums = std::array<std::int64_t, core::kNumLocalities>;

  /// Index of a cluster in `bytes_`: 0 for an invalid id, else id + 1.
  [[nodiscard]] static std::size_t slot(core::ClusterId c) {
    return c.is_valid() ? std::size_t{c.value()} + 1 : 0;
  }
  [[nodiscard]] static core::ClusterId cluster_of(std::size_t slot) {
    return slot == 0 ? core::ClusterId::invalid()
                     : core::ClusterId{static_cast<std::uint32_t>(slot - 1)};
  }
  /// Σ over the cells of one source slot, per locality.
  [[nodiscard]] LocalitySums source_sums(std::size_t src_slot) const;

  /// Every landed row, in landed order. A fleet run lands over 100 MB of
  /// rows, which PodVector grows by remapping pages instead of copying.
  core::PodVector<TaggedSample> rows_;
  /// bytes_[src slot][dst slot][locality]. A source slot's vector is
  /// non-empty exactly when some non-partial row came from that cluster.
  std::vector<std::vector<LocalitySums>> bytes_;
};

/// Convenience: a fully wired agent->scribe->tagger->scuba pipeline.
///
/// Flow-mode sampling draws from a per-reporter-host stream forked from the
/// pipeline's root rng (`fork("analytic-host", host)`), mirroring the
/// production system where every machine's agent samples independently.
/// Consequently the samples drawn for one host's flows do not depend on how
/// flows from *different* hosts interleave — the determinism contract that
/// lets runtime::ShardedFleetRunner feed per-shard pipelines in parallel
/// and merge them into the same result as a serial run.
///
/// Fleet streams arrive grouped by reporter, so `offer_flow` remembers the
/// last reporter's sampler and looks the map up only when the reporter
/// changes. The map's nodes never move, so the cached pointer stays valid
/// as new reporters are added, and any HostId may arrive in any order.
class FbflowPipeline {
 public:
  /// `faults`, when non-null and enabled, injects the pipeline's real-world
  /// failure modes (must outlive the pipeline): Scribe publish attempts can
  /// fail and are retried with exponential backoff (exhausted retries lose
  /// the sample — scribe_dropped), delivered samples can be delayed (which
  /// shifts the Scuba minute they land in), and tagger lookups can fail
  /// (the row lands partial). Every decision is keyed on the sample's
  /// content (FaultPlan::sample_key), so faulted shard pipelines merge to
  /// the same table as a faulted serial pipeline.
  FbflowPipeline(const topology::Fleet& fleet, std::int64_t sampling_rate,
                 core::RngStream rng, const faults::FaultPlan* faults = nullptr);

  // The sampler cache points into this pipeline's own map, so a copy or
  // move would alias the original.
  FbflowPipeline(const FbflowPipeline&) = delete;
  FbflowPipeline& operator=(const FbflowPipeline&) = delete;

  /// Fleet mode: offer a completed flow for analytic sampling. The flow's
  /// src_host is the reporting agent.
  void offer_flow(const core::FlowRecord& flow);

  /// Packet mode: offer one packet observed at `reporter`.
  void offer_packet(core::HostId reporter, const core::PacketHeader& header);

  /// Absorbs another pipeline's landed rows and counters, appending its
  /// Scuba rows after this pipeline's. Both pipelines must share the
  /// sampling rate (and, for meaningful results, the root rng seed and
  /// fleet). Merging shard pipelines in canonical shard order reproduces a
  /// serial pipeline's table row-for-row.
  void merge(const FbflowPipeline& other);

  [[nodiscard]] const ScubaTable& scuba() const { return scuba_; }
  [[nodiscard]] const ScribeBus& scribe() const { return scribe_; }
  [[nodiscard]] std::int64_t sampling_rate() const { return sampling_rate_; }
  [[nodiscard]] std::int64_t tag_failures() const { return tag_failures_; }

  // Fault-injection loss accounting (all zero when fault-free).
  /// Samples lost after exhausting Scribe retries.
  [[nodiscard]] std::int64_t scribe_dropped() const { return scribe_dropped_; }
  /// Total failed publish attempts that were retried.
  [[nodiscard]] std::int64_t scribe_retries() const { return scribe_retries_; }
  /// Total exponential-backoff delay accumulated by retried publishes.
  [[nodiscard]] core::Duration scribe_backoff_total() const { return scribe_backoff_total_; }
  /// Delivered samples whose capture time was shifted by Scribe delay.
  [[nodiscard]] std::int64_t scribe_delayed() const { return scribe_delayed_; }
  /// Injected tagger lookup failures (each lands one partial row).
  [[nodiscard]] std::int64_t tag_failures_injected() const { return tag_failures_injected_; }
  /// Partial (untagged) rows landed in Scuba.
  [[nodiscard]] std::int64_t partial_rows() const { return partial_rows_; }

 private:
  [[nodiscard]] AnalyticSampler& sampler_for(core::HostId reporter);
  /// Scribe ingress under the fault plan: retry/drop/delay, then publish
  /// and land.
  void publish(const SampledPacket& sample);
  /// The tagger: tags a published sample and appends it to Scuba (partial
  /// under an injected lookup failure).
  void land(const SampledPacket& sample);

  std::int64_t sampling_rate_;
  const faults::FaultPlan* faults_;
  bool faulted_{false};
  core::RngStream analytic_root_;
  std::unordered_map<std::uint64_t, AnalyticSampler> analytic_;  // by reporter host
  std::uint64_t last_reporter_{0};
  AnalyticSampler* last_sampler_{nullptr};  // analytic_[last_reporter_], once set
  core::RngStream packet_rng_;  // must precede packet_sampler_
  PacketSampler packet_sampler_;
  ScribeBus scribe_;
  Tagger tagger_;
  ScubaTable scuba_;
  std::int64_t tag_failures_{0};
  std::int64_t scribe_dropped_{0};
  std::int64_t scribe_retries_{0};
  core::Duration scribe_backoff_total_ = core::Duration::nanos(0);
  std::int64_t scribe_delayed_{0};
  std::int64_t tag_failures_injected_{0};
  std::int64_t partial_rows_{0};
};

}  // namespace fbdcsim::monitoring
