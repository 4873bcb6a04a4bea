#include "common.h"

#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "fbdcsim/telemetry/json.h"

#ifndef FBDCSIM_GIT_REV
#define FBDCSIM_GIT_REV "unknown"
#endif

namespace fbdcsim::bench {

const char* git_revision() { return FBDCSIM_GIT_REV; }

std::optional<std::int64_t> bench_seconds_env() {
  const char* env = std::getenv("FBDCSIM_BENCH_SECONDS");
  if (env == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "FBDCSIM_BENCH_SECONDS='%s' is not an integer; ignoring it\n",
                 env);
    return std::nullopt;
  }
  if (v <= 0) {
    std::fprintf(stderr, "FBDCSIM_BENCH_SECONDS=%lld must be positive; ignoring it\n", v);
    return std::nullopt;
  }
  return v;
}

namespace {

/// Resolves one FBDCSIM_* knob for the whole bench run: `Parse` reads the
/// variable (diagnosing a malformed value on stderr) and runs again only
/// when the variable's value changes, so the banner, the report, every
/// BenchEnv and every capture share one parse and one diagnostic.
template <auto Parse>
decltype(Parse()) resolve_knob(const char* name) {
  static std::mutex mu;
  static std::optional<std::pair<std::optional<std::string>, decltype(Parse())>> last;
  const char* env = std::getenv(name);
  const auto raw = env != nullptr ? std::optional<std::string>{env} : std::nullopt;
  const std::lock_guard<std::mutex> lock{mu};
  if (!last || last->first != raw) last.emplace(raw, Parse());
  return last->second;
}

/// Calls of BenchEnv::effective_seconds so far: a report whose window saw
/// none belongs to a bench that does not honour FBDCSIM_BENCH_SECONDS.
std::atomic<std::uint64_t> bench_seconds_reads{0};

/// A value rendered with a fixed printf format (the report's %.6g extras,
/// %.6f wall time and %.1f rate).
std::string format_double(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

}  // namespace

telemetry::ObsConfig obs_config() {
  return resolve_knob<&telemetry::obs_config_from_env>("FBDCSIM_OBS");
}

faults::FaultConfig fault_config() {
  return resolve_knob<&faults::fault_config_from_env>("FBDCSIM_FAULTS");
}

std::int64_t BenchEnv::effective_seconds(std::int64_t nominal) {
  bench_seconds_reads.fetch_add(1, std::memory_order_relaxed);
  return resolve_knob<&bench_seconds_env>("FBDCSIM_BENCH_SECONDS").value_or(nominal);
}

RoleTrace BenchEnv::capture(core::HostRole role, std::int64_t seconds, const Tweak& tweak) {
  FBDCSIM_T_SPAN2(capture_span, "bench.capture", core::to_string(role));
  workload::RackSimConfig cfg = workload::default_rack_config(
      fleet_, role, core::Duration::seconds(effective_seconds(seconds)));
  // FBDCSIM_OBS opt-in: applied before the tweak so benches can refine it.
  // Unset (or off) leaves cfg untouched — captures stay byte-identical.
  if (const telemetry::ObsConfig& env_obs = obs(); env_obs.enabled()) cfg.obs = env_obs;
  if (tweak) tweak(cfg);
  workload::RackSimulation sim{fleet_, cfg};
  RoleTrace trace;
  trace.role = role;
  trace.host = cfg.monitored_host;
  trace.self = fleet_.host(cfg.monitored_host).addr;
  trace.result = sim.run();
  return trace;
}

runtime::ThreadPool& BenchEnv::pool() {
  if (!pool_) pool_ = std::make_unique<runtime::ThreadPool>();
  return *pool_;
}

const faults::FaultPlan* BenchEnv::fault_plan() {
  if (!fault_plan_) {
    const faults::FaultConfig cfg = fault_config();
    fault_plan_.emplace(cfg.profile == faults::Profile::kOff
                            ? nullptr
                            : std::make_unique<faults::FaultPlan>(cfg));
  }
  return fault_plan_->get();
}

const telemetry::ObsConfig& BenchEnv::obs() {
  if (!obs_) obs_ = obs_config();
  return *obs_;
}

std::vector<RoleTrace> BenchEnv::capture_all(const std::vector<CaptureSpec>& specs) {
  // capture() reads this knob on the workers; resolve it here first so no
  // two workers race to fill the slot.
  (void)obs();
  return pool().parallel_map(specs, [this](const CaptureSpec& spec) {
    return capture(spec.role, spec.seconds, spec.tweak);
  });
}

namespace {
constexpr double kQuantiles[] = {0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0};
}  // namespace

void print_cdf(const char* label, const core::Cdf& cdf, double scale, const char* unit) {
  std::printf("%s (%zu samples)\n", label, cdf.size());
  std::printf("  %8s  %12s\n", "quantile", "value");
  for (const double q : kQuantiles) {
    std::printf("  %8.2f  %12.4g%s\n", q, cdf.quantile(q) * scale, unit);
  }
}

void print_cdf_table(const char* title, const std::vector<std::string>& names,
                     const std::vector<const core::Cdf*>& cdfs, double scale,
                     const char* unit) {
  std::printf("%s%s%s\n", title, unit[0] != '\0' ? " — values in " : "", unit);
  std::printf("  %8s", "quantile");
  for (const auto& name : names) std::printf("  %14s", name.c_str());
  std::printf("\n");
  for (const double q : kQuantiles) {
    std::printf("  %8.2f", q);
    for (const core::Cdf* cdf : cdfs) {
      if (cdf == nullptr || cdf->empty()) {
        std::printf("  %14s", "-");
      } else {
        std::printf("  %14.4g", cdf->quantile(q) * scale);
      }
    }
    std::printf("\n");
  }
}

int print_anchors(const Anchors& anchors, const Anchors& faulted) {
  int failed = 0;
  const bool have_faulted = !faulted.empty();
  std::printf("\n%-5s %-62s %12s", "sec", "claim", "measured");
  if (have_faulted) std::printf(" %12s", "faulted");
  std::printf(" %18s\n", "accepted band");
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    const Anchor& a = anchors[i];
    if (!a.pass()) ++failed;
    std::printf("%-5s %-62s %12.2f", a.section.c_str(), a.claim.c_str(), a.measured);
    if (have_faulted) {
      if (i < faulted.size()) {
        std::printf(" %12.2f", faulted[i].measured);
      } else {
        std::printf(" %12s", "-");
      }
    }
    std::printf(" %8.4g-%-8.4g %s\n", a.lo, a.hi, a.pass() ? "PASS" : "FAIL");
  }
  std::printf("\n%zu anchors, %d failed\n", anchors.size(), failed);
  return failed;
}

void banner(const char* experiment, const char* paper_ref, std::uint64_t seed) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Reproduces: %s — 'Inside the Social Network's (Datacenter) Network'\n",
              paper_ref);
  std::printf("threads: %d (override with FBDCSIM_THREADS)\n", runtime::env_thread_count());
  std::printf("seed: %llu | rev: %s\n", static_cast<unsigned long long>(seed),
              git_revision());
  // Only announce faults when a profile is active, so fault-free bench
  // output stays byte-identical to pre-fault-layer runs.
  const faults::FaultConfig fc = fault_config();
  if (fc.profile != faults::Profile::kOff) {
    std::printf("faults: %s (FBDCSIM_FAULTS)\n", faults::to_string(fc.profile));
  }
  std::printf("==================================================================\n");
}

std::string resolve_out_path(const std::string& filename) {
  const char* env = std::getenv("FBDCSIM_BENCH_OUT");
  if (env == nullptr) return filename;
  if (env[0] == '\0') {
    std::fprintf(stderr, "FBDCSIM_BENCH_OUT is empty; writing %s to the working "
                         "directory\n",
                 filename.c_str());
    return filename;
  }
  std::string base{env};
  struct stat st{};
  const bool is_dir =
      base.back() == '/' || (::stat(base.c_str(), &st) == 0 && S_ISDIR(st.st_mode));
  if (is_dir) {
    if (base.back() != '/') base += '/';
    return base + filename;
  }
  return base;  // an explicit file path (single-bench runs)
}

namespace {

/// Writes one report file and names it on stderr as "<label><path><note>";
/// false when the file cannot be opened.
bool write_report_file(const char* label, const std::string& path, const std::string& text,
                       const char* note = "") {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "%s%s%s\n", label, path.c_str(), note);
  return true;
}

/// Sets `key` to a pre-rendered JSON value: overwritten in place when
/// present, appended otherwise (first-insertion order).
void upsert(std::vector<std::pair<std::string, std::string>>& entries, const std::string& key,
            std::string json) {
  for (auto& [k, v] : entries) {
    if (k == key) {
      v = std::move(json);
      return;
    }
  }
  entries.emplace_back(key, std::move(json));
}

/// "foo.json" -> "foo<insert>.json"; other extensions just get the suffix.
std::string sibling_path_for(const std::string& report_path, const std::string& insert) {
  const std::string suffix = ".json";
  if (report_path.size() > suffix.size() &&
      report_path.compare(report_path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return report_path.substr(0, report_path.size() - suffix.size()) + insert;
  }
  return report_path + insert;
}

}  // namespace

BenchReport::BenchReport(std::string name, std::uint64_t seed)
    : name_{std::move(name)},
      seed_{seed},
      start_{std::chrono::steady_clock::now()},
      seconds_reads_at_start_{bench_seconds_reads.load(std::memory_order_relaxed)} {}

void BenchReport::add_extra(const std::string& key, double value) {
  upsert(extras_, key, format_double("%.6g", value));
}

void BenchReport::add_extra(const std::string& key, std::int64_t value) {
  upsert(extras_, key, std::to_string(value));
}

void BenchReport::add_extra(const std::string& key, const std::string& value) {
  std::string json;
  telemetry::JsonWriter{json}.value(value);
  upsert(extras_, key, std::move(json));
}

std::string BenchReport::report_path() const {
  return resolve_out_path("bench_" + name_ + ".json");
}

std::string BenchReport::trace_path() const {
  return sibling_path_for(report_path(), ".trace.json");
}

std::string BenchReport::tracepoints_path() const {
  return sibling_path_for(report_path(), ".tracepoints.jsonl");
}

std::string BenchReport::flows_path() const {
  return sibling_path_for(report_path(), ".flows.jsonl");
}

void BenchReport::add_timeseries(const std::string& key,
                                 const std::vector<telemetry::SeriesSnapshot>& series) {
  upsert(timeseries_, key, telemetry::timeseries_to_json(series));
}

void BenchReport::add_tracepoints(telemetry::TracePointDump dump) {
  tracepoint_dumps_.push_back(std::move(dump));
}

void BenchReport::add_flows(telemetry::FlowLedgerDump dump) {
  if (dump.records.empty() && dump.total == 0) return;  // ledger never engaged
  flow_dumps_.push_back(std::move(dump));
}

void BenchReport::add_fct(std::string fct_json) { fct_json_ = std::move(fct_json); }

std::string BenchReport::to_json() const {
  const telemetry::Snapshot snap = telemetry::MetricsRegistry::global().snapshot();
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                    start_)
                          .count();
  std::string out;
  telemetry::JsonWriter w{out};
  w.begin_object()
      .field("bench", name_)
      .field("schema", 1)
      .field("git", git_revision())
      .field("seed", seed_)
      .field("threads", runtime::env_thread_count())
      .key("bench_seconds");
  const bool honoured =
      bench_seconds_reads.load(std::memory_order_relaxed) != seconds_reads_at_start_;
  const auto secs = honoured ? resolve_knob<&bench_seconds_env>("FBDCSIM_BENCH_SECONDS")
                             : std::nullopt;
  if (secs) {
    w.value(*secs);
  } else {
    w.null();
  }
  w.key("wall_seconds")
      .raw(format_double("%.6f", wall))
      .field("status", status_)
      .field("telemetry_enabled", FBDCSIM_TELEMETRY_ENABLED != 0);
  // The active fault profile, only when one is on — fault-free reports stay
  // byte-identical to pre-fault-layer ones (absent field means "off").
  if (const faults::FaultConfig fc = fault_config(); fc.profile != faults::Profile::kOff) {
    w.field("faults", faults::to_string(fc.profile));
  }
  // Derived rates for the headline metrics (null until their inputs exist).
  w.key("derived").begin_object().key("sim_events_per_sec");
  const auto* events = snap.counter("sim.events");
  const auto* sim_wall = snap.counter("sim.run_wall_us");
  if (events != nullptr && sim_wall != nullptr && sim_wall->value > 0) {
    w.raw(format_double("%.1f", static_cast<double>(events->value) /
                                    (static_cast<double>(sim_wall->value) / 1e6)));
  } else {
    w.null();
  }
  w.end_object();
  // Bench-specific scalars (speedups, per-engine rates, ...) and probe
  // snapshots (observability runs only). Each section is present only when
  // something was added, so older reports stay byte-identical.
  for (const auto& [section, entries] :
       {std::pair{"extra", &extras_}, std::pair{"timeseries", &timeseries_}}) {
    if (entries->empty()) continue;
    w.key(section).begin_object();
    for (const auto& [key, value] : *entries) w.key(key).raw(value);
    w.end_object();
  }
  // FCT tail analytics (FBDCSIM_OBS=flows runs that computed one) — absent
  // otherwise so pre-ledger reports stay byte-identical.
  if (!fct_json_.empty()) w.key("fct").raw(fct_json_);
  w.key("metrics").raw(telemetry::to_json(snap)).end_object();
  return out;
}

BenchReport::~BenchReport() {
  const std::string path = report_path();
  if (!write_report_file("bench report: ", path, to_json() + '\n')) {
    std::fprintf(stderr, "bench report: cannot write %s\n", path.c_str());
  }
  const auto events = telemetry::Tracer::global().events();
  if (!events.empty() || !tracepoint_dumps_.empty()) {
    // Dumps add sim-clock instants on their own pid.
    write_report_file("bench trace:  ", trace_path(),
                      telemetry::to_chrome_trace(events, tracepoint_dumps_) + '\n',
                      " (load in chrome://tracing or https://ui.perfetto.dev)");
  }
  if (!tracepoint_dumps_.empty()) {
    write_report_file("bench tracepoints: ", tracepoints_path(),
                      telemetry::tracepoints_to_jsonl(tracepoint_dumps_));
  }
  if (!flow_dumps_.empty()) {
    write_report_file("bench flows: ", flows_path(), telemetry::flows_to_jsonl(flow_dumps_));
  }
}

}  // namespace fbdcsim::bench
