// Shared infrastructure for the table/figure reproduction benches.
//
// Every bench binary prints the same rows/series the paper reports, against
// traces captured from the canonical rack-experiment fleet. Capture lengths
// default to values that keep each bench under ~a minute; set
// FBDCSIM_BENCH_SECONDS to lengthen or shorten them (bench_ablations keeps
// its own fixed windows).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fbdcsim/analysis/resolver.h"
#include "fbdcsim/core/stats.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/telemetry/export.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/telemetry/obs.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/telemetry/timeseries.h"
#include "fbdcsim/telemetry/tracepoint.h"
#include "fbdcsim/workload/presets.h"

namespace fbdcsim::bench {

/// Seed used by the canonical rack-experiment captures
/// (workload::default_rack_config); the banner's default.
inline constexpr std::uint64_t kCanonicalSeed = 42;

/// The source revision baked in at configure time ("unknown" outside git).
[[nodiscard]] const char* git_revision();

/// Machine-readable perf report, one per bench run. Declare it first in
/// main() so its destructor — which snapshots the global MetricsRegistry,
/// writes bench_<name>.json, and (when telemetry recorded spans) a
/// Perfetto-loadable bench_<name>.trace.json — runs after every pool and
/// simulator has shut down.
///
/// Output location comes from FBDCSIM_BENCH_OUT: unset writes to the
/// working directory; a directory (trailing '/' or an existing one) places
/// the default file names there; anything else is taken as the exact
/// report file path. Malformed values are diagnosed on stderr and ignored,
/// like FBDCSIM_BENCH_SECONDS.
class BenchReport {
 public:
  explicit BenchReport(std::string name, std::uint64_t seed = kCanonicalSeed);
  ~BenchReport();

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void set_seed(std::uint64_t seed) { seed_ = seed; }
  /// The exit status the bench is about to return (recorded in the JSON).
  void set_status(int status) { status_ = status; }

  /// Records a bench-specific scalar under the report's "extra" object, in
  /// insertion order. The section is emitted only when at least one value
  /// was added, so reports from benches that never call this stay
  /// byte-identical to pre-"extra" ones. Re-adding a key overwrites it.
  void add_extra(const std::string& key, double value);
  void add_extra(const std::string& key, std::int64_t value);
  void add_extra(const std::string& key, const std::string& value);

  /// Attaches a probe snapshot under the report's "timeseries" object as
  /// `key`. Like "extra", the section only exists once something was added,
  /// so reports without observability stay byte-identical. Re-adding a key
  /// overwrites it.
  void add_timeseries(const std::string& key,
                      const std::vector<telemetry::SeriesSnapshot>& series);

  /// Attaches a flight-recorder dump. The destructor merges every dump in
  /// canonical source order into bench_<name>.tracepoints.jsonl and folds
  /// the records into the Chrome trace as sim-clock instant events.
  void add_tracepoints(telemetry::TracePointDump dump);

  /// Attaches a flow-ledger dump (FBDCSIM_OBS=flows runs). The destructor
  /// writes every dump, canonically ordered by source id, to
  /// bench_<name>.flows.jsonl. Empty dumps (records empty and total == 0 —
  /// the ledger never engaged) are skipped so non-flows runs emit no file.
  void add_flows(telemetry::FlowLedgerDump dump);

  /// Attaches the report's "fct" section (a pre-rendered JSON object,
  /// normally analysis::FctTable::to_json()). Absent until set, so reports
  /// from benches without FCT analytics stay byte-identical.
  void add_fct(std::string fct_json);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::string report_path() const;
  [[nodiscard]] std::string trace_path() const;
  [[nodiscard]] std::string tracepoints_path() const;
  [[nodiscard]] std::string flows_path() const;

  /// The report JSON (also what the destructor writes). Exposed for tests.
  [[nodiscard]] std::string to_json() const;

 private:
  std::string name_;
  std::uint64_t seed_;
  int status_{0};
  std::chrono::steady_clock::time_point start_;
  /// (key, pre-rendered JSON value) pairs, in first-insertion order.
  std::vector<std::pair<std::string, std::string>> extras_;
  /// (key, pre-rendered timeseries JSON object), in first-insertion order.
  std::vector<std::pair<std::string, std::string>> timeseries_;
  std::vector<telemetry::TracePointDump> tracepoint_dumps_;
  std::vector<telemetry::FlowLedgerDump> flow_dumps_;
  /// Pre-rendered "fct" JSON object; empty = section absent.
  std::string fct_json_;
};

/// FBDCSIM_BENCH_SECONDS as a validated value (std::nullopt when unset or
/// malformed; malformed — including out-of-range — values are diagnosed on
/// stderr once per call).
[[nodiscard]] std::optional<std::int64_t> bench_seconds_env();

/// FBDCSIM_OBS and FBDCSIM_FAULTS as resolved for this bench run. Each knob
/// is parsed once per distinct value — BenchEnv, banner(), BenchReport and
/// the benches' own capture configs all read it through here — so a
/// malformed value is diagnosed once per run.
[[nodiscard]] telemetry::ObsConfig obs_config();
[[nodiscard]] faults::FaultConfig fault_config();

/// Resolves FBDCSIM_BENCH_OUT to a concrete path for `filename`: unset (or
/// empty, with a diagnostic) keeps the working directory, a directory
/// (trailing '/' or an existing one) prefixes it, anything else is the
/// exact report path. Exposed for the env-parsing tests.
[[nodiscard]] std::string resolve_out_path(const std::string& filename);

/// One monitored-host capture plus everything needed to analyze it.
struct RoleTrace {
  core::HostRole role;
  core::HostId host;
  core::Ipv4Addr self;
  workload::RackSimResult result;
};

/// Builds the canonical fleet once and captures per-role traces on demand.
class BenchEnv {
 public:
  BenchEnv() : fleet_{workload::build_rack_experiment_fleet()}, resolver_{fleet_} {}

  [[nodiscard]] const topology::Fleet& fleet() const { return fleet_; }
  [[nodiscard]] const analysis::AddrResolver& resolver() const { return resolver_; }

  /// Adjusts a capture's config before the run.
  using Tweak = std::function<void(workload::RackSimConfig&)>;

  /// One requested capture for the parallel entry point.
  struct CaptureSpec {
    core::HostRole role;
    std::int64_t seconds;
    Tweak tweak = {};
  };

  /// Captures every spec concurrently (one Simulator per spec, scheduled
  /// over the FBDCSIM_THREADS-sized pool) and returns traces in spec
  /// order. Each capture is identical at any pool width — simulations are
  /// seeded independently of scheduling.
  [[nodiscard]] std::vector<RoleTrace> capture_all(const std::vector<CaptureSpec>& specs);

  /// The shared worker pool (created on first use; FBDCSIM_THREADS-sized).
  [[nodiscard]] runtime::ThreadPool& pool();

  /// The fault plan selected by FBDCSIM_FAULTS, resolved once per env.
  /// Returns nullptr when faults are off (unset, "off", or malformed), so
  /// consumers hit the zero-cost opt-out path. Benches opt in explicitly —
  /// captures stay fault-free unless a tweak installs this plan.
  [[nodiscard]] const faults::FaultPlan* fault_plan();

  /// The observability config selected by FBDCSIM_OBS, resolved once per
  /// env (off when unset or malformed). When enabled, capture_all()
  /// applies it to every config before the tweak runs, so tweaks can still
  /// override per capture.
  [[nodiscard]] const telemetry::ObsConfig& obs();

  /// Effective capture length for a nominal request. Malformed or
  /// non-positive FBDCSIM_BENCH_SECONDS values are diagnosed on stderr and
  /// ignored.
  [[nodiscard]] static std::int64_t effective_seconds(std::int64_t nominal);

 private:
  /// Captures `seconds` (FBDCSIM_BENCH_SECONDS, if set, replaces it) of the
  /// given role's traffic, with `tweak` applied to the config.
  [[nodiscard]] RoleTrace capture(core::HostRole role, std::int64_t seconds,
                                  const Tweak& tweak);

  topology::Fleet fleet_;
  analysis::AddrResolver resolver_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  // FBDCSIM_* knobs: empty until first read, then the parsed value.
  std::optional<std::unique_ptr<faults::FaultPlan>> fault_plan_;
  std::optional<telemetry::ObsConfig> obs_;
};

/// Prints a CDF as (quantile, value) rows at the paper's usual quantiles.
void print_cdf(const char* label, const core::Cdf& cdf, double scale = 1.0,
               const char* unit = "");

/// Prints several CDFs side by side (one column per series).
void print_cdf_table(const char* title, const std::vector<std::string>& names,
                     const std::vector<const core::Cdf*>& cdfs, double scale = 1.0,
                     const char* unit = "");

/// One checked claim: the paper section (or ablation) it comes from, the
/// band we accept (taken from the claim with a generous tolerance — we
/// reproduce shapes, not testbeds), and the measured value.
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

/// The way an ablation's change must move a metric.
enum class Direction : std::uint8_t { kUp, kDown };

/// A contrast anchor: the changed run's value must differ from the
/// baseline's by at least `factor` (> 1) in `direction`. The measured value
/// is the fold change in that direction (changed / baseline up, baseline /
/// changed down), so equal values read 1, a move the wrong way reads below
/// 1 and 0/0 reads NaN: each fails the band [factor, inf).
inline void check_contrast(Anchors& anchors, std::string section, std::string claim,
                           double baseline, double changed, double factor,
                           Direction direction) {
  const double fold = direction == Direction::kUp ? changed / baseline : baseline / changed;
  check(anchors, std::move(section), std::move(claim), factor,
        std::numeric_limits<double>::infinity(), fold);
}

/// Prints the anchor table (section, claim, measured value, accepted band,
/// verdict) and returns the number of failed anchors. A non-empty `faulted`
/// adds a column of its measured values, matched by position.
int print_anchors(const Anchors& anchors, const Anchors& faulted = {});

/// Short banner shared by all benches. Prints the seed and source revision
/// so every bench log is attributable; pass the bench's own seed when it
/// does not use the canonical captures.
void banner(const char* experiment, const char* paper_ref,
            std::uint64_t seed = kCanonicalSeed);

}  // namespace fbdcsim::bench
