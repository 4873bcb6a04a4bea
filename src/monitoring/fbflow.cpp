#include "fbdcsim/monitoring/fbflow.h"

#include <functional>
#include <stdexcept>

#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/telemetry/telemetry.h"

namespace fbdcsim::monitoring {

bool Tagger::tag(const SampledPacket& sample, TaggedSample& out) const {
  const core::HostId src = fleet_->host_by_addr(sample.tuple.src_ip);
  const core::HostId dst = fleet_->host_by_addr(sample.tuple.dst_ip);
  if (!src.is_valid() || !dst.is_valid()) return false;

  const topology::Host& s = fleet_->host(src);
  const topology::Host& d = fleet_->host(dst);
  out.sample = sample;
  out.src_host = src;
  out.dst_host = dst;
  out.src_role = s.role;
  out.dst_role = d.role;
  out.src_rack = s.rack;
  out.dst_rack = d.rack;
  out.src_cluster = s.cluster;
  out.dst_cluster = d.cluster;
  out.src_dc = s.datacenter;
  out.dst_dc = d.datacenter;
  out.locality = topology::Fleet::locality(s, d);
  out.minute = sample.captured_at.count_nanos() / 60'000'000'000LL;
  return true;
}

double ScubaTable::LocalityBytes::total() const {
  double t = 0.0;
  for (const double b : bytes) t += b;
  return t;
}

std::array<double, core::kNumLocalities> ScubaTable::LocalityBytes::percentages() const {
  std::array<double, core::kNumLocalities> out{};
  const double t = total();
  if (t <= 0.0) return out;
  for (int i = 0; i < core::kNumLocalities; ++i) out[static_cast<std::size_t>(i)] = bytes[i] / t * 100.0;
  return out;
}

void ScubaTable::add(const TaggedSample& row) {
  rows_.push_back(row);
  if (row.partial) return;
  const std::size_t src = slot(row.src_cluster);
  const std::size_t dst = slot(row.dst_cluster);
  if (src >= bytes_.size()) bytes_.resize(src + 1);
  std::vector<LocalitySums>& by_dst = bytes_[src];
  if (dst >= by_dst.size()) by_dst.resize(dst + 1, LocalitySums{});
  by_dst[dst][static_cast<std::size_t>(row.locality)] += row.sample.frame_bytes;
}

namespace {

using Sums = std::array<std::int64_t, core::kNumLocalities>;

void add_into(Sums& to, const Sums& from) {
  for (std::size_t l = 0; l < to.size(); ++l) to[l] += from[l];
}

double estimated(std::int64_t sampled_bytes, std::int64_t sampling_rate) {
  return static_cast<double>(sampled_bytes) * static_cast<double>(sampling_rate);
}

ScubaTable::LocalityBytes estimated(const Sums& sampled, std::int64_t sampling_rate) {
  ScubaTable::LocalityBytes out;
  for (std::size_t l = 0; l < sampled.size(); ++l) out.bytes[l] = estimated(sampled[l], sampling_rate);
  return out;
}

}  // namespace

void ScubaTable::merge(const ScubaTable& other) {
  rows_.append(other.rows());
  if (other.bytes_.size() > bytes_.size()) bytes_.resize(other.bytes_.size());
  for (std::size_t src = 0; src < other.bytes_.size(); ++src) {
    const std::vector<LocalitySums>& from = other.bytes_[src];
    std::vector<LocalitySums>& to = bytes_[src];
    if (from.size() > to.size()) to.resize(from.size(), LocalitySums{});
    for (std::size_t dst = 0; dst < from.size(); ++dst) add_into(to[dst], from[dst]);
  }
}

ScubaTable::LocalitySums ScubaTable::source_sums(std::size_t src_slot) const {
  LocalitySums out{};
  for (const LocalitySums& cell : bytes_[src_slot]) add_into(out, cell);
  return out;
}

ScubaTable::LocalityBytes ScubaTable::locality_bytes(std::int64_t sampling_rate) const {
  LocalitySums sums{};
  for (std::size_t src = 0; src < bytes_.size(); ++src) add_into(sums, source_sums(src));
  return estimated(sums, sampling_rate);
}

ScubaTable::LocalityBytes ScubaTable::locality_bytes_for_cluster_type(
    const topology::Fleet& fleet, topology::ClusterType type,
    std::int64_t sampling_rate) const {
  LocalitySums sums{};
  for (std::size_t src = 0; src < bytes_.size(); ++src) {
    if (bytes_[src].empty() || fleet.cluster(cluster_of(src)).type != type) continue;
    add_into(sums, source_sums(src));
  }
  return estimated(sums, sampling_rate);
}

std::vector<std::pair<topology::ClusterType, double>> ScubaTable::bytes_by_cluster_type(
    const topology::Fleet& fleet, std::int64_t sampling_rate) const {
  constexpr topology::ClusterType kTypes[] = {
      topology::ClusterType::kFrontend, topology::ClusterType::kCache,
      topology::ClusterType::kHadoop, topology::ClusterType::kDatabase,
      topology::ClusterType::kService};
  std::int64_t sums[std::size(kTypes)]{};
  for (std::size_t src = 0; src < bytes_.size(); ++src) {
    if (bytes_[src].empty()) continue;
    const auto type = fleet.cluster(cluster_of(src)).type;
    const LocalitySums s = source_sums(src);
    for (std::size_t t = 0; t < std::size(kTypes); ++t) {
      if (kTypes[t] == type) {
        for (const std::int64_t b : s) sums[t] += b;
        break;
      }
    }
  }
  std::vector<std::pair<topology::ClusterType, double>> out;
  for (std::size_t t = 0; t < std::size(kTypes); ++t) {
    out.emplace_back(kTypes[t], estimated(sums[t], sampling_rate));
  }
  return out;
}

std::vector<std::vector<double>> ScubaTable::rack_matrix(const topology::Fleet& fleet,
                                                         core::ClusterId cluster,
                                                         std::int64_t sampling_rate) const {
  const auto& racks = fleet.cluster(cluster).racks;
  std::vector<std::vector<double>> m(racks.size(), std::vector<double>(racks.size(), 0.0));
  // Map global rack id -> position within the cluster.
  std::vector<std::int64_t> pos(fleet.num_racks(), -1);
  for (std::size_t i = 0; i < racks.size(); ++i) pos[racks[i].value()] = static_cast<std::int64_t>(i);

  for (const TaggedSample& r : rows()) {
    if (r.partial) continue;
    if (r.src_cluster != cluster || r.dst_cluster != cluster) continue;
    const std::int64_t si = pos[r.src_rack.value()];
    const std::int64_t di = pos[r.dst_rack.value()];
    if (si < 0 || di < 0) continue;
    m[static_cast<std::size_t>(si)][static_cast<std::size_t>(di)] +=
        static_cast<double>(r.sample.frame_bytes) * static_cast<double>(sampling_rate);
  }
  return m;
}

std::vector<std::vector<double>> ScubaTable::cluster_matrix(const topology::Fleet& fleet,
                                                            core::DatacenterId dc,
                                                            std::int64_t sampling_rate) const {
  const auto& clusters = fleet.datacenter(dc).clusters;
  std::vector<std::vector<double>> m(clusters.size(), std::vector<double>(clusters.size(), 0.0));
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const std::size_t src = slot(clusters[i]);
    if (src >= bytes_.size()) continue;
    const std::vector<LocalitySums>& by_dst = bytes_[src];
    for (std::size_t j = 0; j < clusters.size(); ++j) {
      const std::size_t dst = slot(clusters[j]);
      if (dst >= by_dst.size()) continue;
      std::int64_t sum = 0;
      for (const std::int64_t b : by_dst[dst]) sum += b;
      m[i][j] = estimated(sum, sampling_rate);
    }
  }
  return m;
}

std::vector<std::pair<core::HostRole, double>> ScubaTable::outbound_by_dest_role(
    core::HostId src, std::int64_t sampling_rate) const {
  constexpr core::HostRole kRoles[] = {
      core::HostRole::kWeb,      core::HostRole::kCacheFollower, core::HostRole::kCacheLeader,
      core::HostRole::kHadoop,   core::HostRole::kMultifeed,     core::HostRole::kSlb,
      core::HostRole::kDatabase, core::HostRole::kService};
  std::vector<std::pair<core::HostRole, double>> out;
  for (const auto role : kRoles) out.emplace_back(role, 0.0);
  for (const TaggedSample& r : rows()) {
    if (r.partial) continue;
    if (r.src_host != src) continue;
    for (auto& [role, bytes] : out) {
      if (role == r.dst_role) {
        bytes += static_cast<double>(r.sample.frame_bytes) * static_cast<double>(sampling_rate);
        break;
      }
    }
  }
  return out;
}

FbflowPipeline::FbflowPipeline(const topology::Fleet& fleet, std::int64_t sampling_rate,
                               core::RngStream rng, const faults::FaultPlan* faults)
    : sampling_rate_{sampling_rate},
      faults_{faults},
      faulted_{faults != nullptr && faults->enabled()},
      analytic_root_{rng.fork("analytic")},
      tagger_{fleet} {}

void FbflowPipeline::land(const SampledPacket& s) {
  FBDCSIM_T_COUNTER(published, "fbflow.scribe.published", Sim);
  FBDCSIM_T_ADD(published, 1);
  ++scribe_published_;
  if (faulted_) {
    // Injected tagger outage: degrade gracefully — the row lands
    // partial (untagged) rather than being lost.
    const std::uint64_t key = faults::FaultPlan::sample_key(
        s.reporter.value(), s.captured_at.count_nanos(),
        std::hash<core::FiveTuple>{}(s.tuple));
    if (faults_->tagger_lookup_fails(key)) {
      TaggedSample partial;
      partial.sample = s;
      partial.partial = true;
      partial.minute = s.captured_at.count_nanos() / 60'000'000'000LL;
      scuba_.add(partial);
      ++tag_failures_injected_;
      ++partial_rows_;
      FBDCSIM_T_COUNTER(injected, "fbflow.tag_failures_injected", Sim);
      FBDCSIM_T_COUNTER(partials, "fbflow.partial_rows", Sim);
      FBDCSIM_T_ADD(injected, 1);
      FBDCSIM_T_ADD(partials, 1);
      return;
    }
  }
  TaggedSample tagged;
  if (tagger_.tag(s, tagged)) {
    scuba_.add(tagged);
    FBDCSIM_T_COUNTER(landed, "fbflow.scuba.rows", Sim);
    FBDCSIM_T_ADD(landed, 1);
  } else {
    ++tag_failures_;
    FBDCSIM_T_COUNTER(failures, "fbflow.tag_failures", Sim);
    FBDCSIM_T_ADD(failures, 1);
  }
}

void FbflowPipeline::publish(const SampledPacket& sample) {
  if (!faulted_) {
    land(sample);
    return;
  }
  const std::uint64_t key = faults::FaultPlan::sample_key(
      sample.reporter.value(), sample.captured_at.count_nanos(),
      std::hash<core::FiveTuple>{}(sample.tuple));

  // Retry with exponential backoff; each attempt's fate is its own
  // deterministic draw. A sample whose every attempt fails is lost.
  const int max_retries = faults_->config().scribe_max_retries;
  int failed_attempts = 0;
  while (failed_attempts <= max_retries &&
         faults_->scribe_attempt_fails(key, failed_attempts)) {
    ++failed_attempts;
  }
  if (failed_attempts > max_retries) {
    ++scribe_dropped_;
    scribe_backoff_total_ = scribe_backoff_total_ + faults_->scribe_backoff(failed_attempts);
    FBDCSIM_T_COUNTER(dropped, "fbflow.scribe_dropped", Sim);
    FBDCSIM_T_ADD(dropped, 1);
    return;
  }
  if (failed_attempts > 0) {
    scribe_retries_ += failed_attempts;
    scribe_backoff_total_ = scribe_backoff_total_ + faults_->scribe_backoff(failed_attempts);
    FBDCSIM_T_COUNTER(retries, "fbflow.scribe_retries", Sim);
    FBDCSIM_T_ADD(retries, failed_attempts);
  }

  if (faults_->scribe_delayed(key)) {
    // The delay shifts the capture timestamp — and so, possibly, the Scuba
    // minute the record lands in (the mis-tagged-minute effect).
    SampledPacket delayed = sample;
    delayed.captured_at = sample.captured_at + faults_->scribe_delay(key);
    ++scribe_delayed_;
    FBDCSIM_T_COUNTER(delayed_c, "fbflow.scribe_delayed", Sim);
    FBDCSIM_T_ADD(delayed_c, 1);
    land(delayed);
    return;
  }
  land(sample);
}

AnalyticSampler& FbflowPipeline::sampler_for(core::HostId reporter) {
  const std::uint64_t key = reporter.value();
  if (last_sampler_ != nullptr && key == last_reporter_) return *last_sampler_;
  auto it = analytic_.find(key);
  if (it == analytic_.end()) {
    it = analytic_
             .emplace(key,
                      AnalyticSampler{sampling_rate_, analytic_root_.fork("analytic-host", key)})
             .first;
  }
  last_reporter_ = key;
  last_sampler_ = &it->second;
  return *last_sampler_;
}

void FbflowPipeline::offer_flow(const core::FlowRecord& flow) {
  FBDCSIM_T_COUNTER(offered, "fbflow.flows_offered", Sim);
  FBDCSIM_T_ADD(offered, 1);
  sampler_for(flow.src_host)
      .sample_flow(flow, [this](const SampledPacket& s) { publish(s); });
}

void FbflowPipeline::merge(const FbflowPipeline& other) {
  if (other.sampling_rate_ != sampling_rate_) {
    throw std::invalid_argument{"FbflowPipeline::merge: sampling rates differ"};
  }
  scuba_.merge(other.scuba_);
  tag_failures_ += other.tag_failures_;
  scribe_published_ += other.scribe_published_;
  scribe_dropped_ += other.scribe_dropped_;
  scribe_retries_ += other.scribe_retries_;
  scribe_backoff_total_ = scribe_backoff_total_ + other.scribe_backoff_total_;
  scribe_delayed_ += other.scribe_delayed_;
  tag_failures_injected_ += other.tag_failures_injected_;
  partial_rows_ += other.partial_rows_;
}

}  // namespace fbdcsim::monitoring
