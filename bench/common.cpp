#include "common.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "fbdcsim/runtime/parallel_capture.h"

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

std::int64_t BenchEnv::effective_seconds(std::int64_t nominal) {
  return bench_seconds_env().value_or(nominal);
}

RoleTrace BenchEnv::capture(core::HostRole role, std::int64_t seconds, const Tweak& tweak) {
  FBDCSIM_T_SPAN2(capture_span, "bench.capture", core::to_string(role));
  workload::RackSimConfig cfg = workload::default_rack_config(
      fleet_, role, core::Duration::seconds(effective_seconds(seconds)));
  // FBDCSIM_OBS opt-in: applied before the tweak so benches can refine it.
  // Unset (or off) leaves cfg untouched — captures stay byte-identical.
  if (const telemetry::ObsConfig& env_obs = obs(); env_obs.enabled()) cfg.obs = env_obs;
  // FBDCSIM_CC / FBDCSIM_RECOVERY: inert under the scripted default; they
  // take effect when the bench's tweak opts into Transport::kTcp (tweaks
  // may still override).
  cfg.tcp.cc = cc();
  cfg.tcp.recovery = recovery();
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
    const faults::FaultConfig cfg = faults::fault_config_from_env();
    fault_plan_.emplace(cfg.profile == faults::Profile::kOff
                            ? nullptr
                            : std::make_unique<faults::FaultPlan>(cfg));
  }
  return fault_plan_->get();
}

const telemetry::ObsConfig& BenchEnv::obs() {
  if (!obs_) obs_ = telemetry::obs_config_from_env();
  return *obs_;
}

transport::CongestionControl BenchEnv::cc() {
  if (!cc_) cc_ = transport::cc_from_env();
  return *cc_;
}

transport::LossRecovery BenchEnv::recovery() {
  if (!recovery_) recovery_ = transport::recovery_from_env();
  return *recovery_;
}

std::vector<RoleTrace> BenchEnv::capture_all(std::vector<CaptureSpec> specs) {
  // capture() reads these knobs on the workers; resolve them here first so
  // no two workers race to fill the same slot.
  (void)obs();
  (void)cc();
  (void)recovery();
  std::vector<std::function<RoleTrace()>> tasks;
  tasks.reserve(specs.size());
  for (CaptureSpec& spec : specs) {
    tasks.push_back([this, spec = std::move(spec)] {
      return capture(spec.role, spec.seconds, spec.tweak);
    });
  }
  const runtime::ParallelCaptureRunner runner{pool()};
  return runner.run(tasks);
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
  const faults::FaultConfig fc = faults::fault_config_from_env();
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
    : name_{std::move(name)}, seed_{seed}, start_{std::chrono::steady_clock::now()} {}

void BenchReport::set_extra(const std::string& key, std::string json_value) {
  for (auto& [k, v] : extras_) {
    if (k == key) {
      v = std::move(json_value);
      return;
    }
  }
  extras_.emplace_back(key, std::move(json_value));
}

void BenchReport::add_extra(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  set_extra(key, buf);
}

void BenchReport::add_extra(const std::string& key, std::int64_t value) {
  set_extra(key, std::to_string(value));
}

void BenchReport::add_extra(const std::string& key, const std::string& value) {
  set_extra(key, "\"" + telemetry::json_escape(value) + "\"");
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
  const std::string json = telemetry::timeseries_to_json(series);
  for (auto& [k, v] : timeseries_) {
    if (k == key) {
      v = json;
      return;
    }
  }
  timeseries_.emplace_back(key, json);
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
  std::string out = "{";
  out += "\"bench\":\"" + telemetry::json_escape(name_) + "\"";
  out += ",\"schema\":1";
  out += ",\"git\":\"" + telemetry::json_escape(git_revision()) + "\"";
  out += ",\"seed\":" + std::to_string(seed_);
  out += ",\"threads\":" + std::to_string(runtime::env_thread_count());
  if (const auto secs = bench_seconds_env()) {
    out += ",\"bench_seconds\":" + std::to_string(*secs);
  } else {
    out += ",\"bench_seconds\":null";
  }
  {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", wall);
    out += ",\"wall_seconds\":";
    out += buf;
  }
  out += ",\"status\":" + std::to_string(status_);
  out += std::string{",\"telemetry_enabled\":"} +
         (FBDCSIM_TELEMETRY_ENABLED ? "true" : "false");
  // The active fault profile, only when one is on — fault-free reports stay
  // byte-identical to pre-fault-layer ones (absent field means "off").
  {
    const faults::FaultConfig fc = faults::fault_config_from_env();
    if (fc.profile != faults::Profile::kOff) {
      out += ",\"faults\":\"" + telemetry::json_escape(faults::to_string(fc.profile)) + "\"";
    }
  }
  // Derived rates for the headline metrics (null until their inputs exist).
  out += ",\"derived\":{";
  const auto* events = snap.counter("sim.events");
  const auto* sim_wall = snap.counter("sim.run_wall_us");
  if (events != nullptr && sim_wall != nullptr && sim_wall->value > 0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1f",
                  static_cast<double>(events->value) /
                      (static_cast<double>(sim_wall->value) / 1e6));
    out += "\"sim_events_per_sec\":";
    out += buf;
  } else {
    out += "\"sim_events_per_sec\":null";
  }
  out += "}";
  // Bench-specific scalars (speedups, per-engine rates, ...). Only present
  // when the bench recorded some, so older reports stay byte-identical.
  if (!extras_.empty()) {
    out += ",\"extra\":{";
    bool first = true;
    for (const auto& [key, value] : extras_) {
      if (!first) out += ",";
      first = false;
      out += "\"" + telemetry::json_escape(key) + "\":" + value;
    }
    out += "}";
  }
  // Probe snapshots (observability runs only) — absent otherwise so
  // pre-observability reports stay byte-identical.
  if (!timeseries_.empty()) {
    out += ",\"timeseries\":{";
    bool first = true;
    for (const auto& [key, value] : timeseries_) {
      if (!first) out += ",";
      first = false;
      out += "\"" + telemetry::json_escape(key) + "\":" + value;
    }
    out += "}";
  }
  // FCT tail analytics (FBDCSIM_OBS=flows runs that computed one) — absent
  // otherwise so pre-ledger reports stay byte-identical.
  if (!fct_json_.empty()) {
    out += ",\"fct\":" + fct_json_;
  }
  out += ",\"metrics\":" + telemetry::to_json(snap);
  out += "}";
  return out;
}

BenchReport::~BenchReport() {
  const std::string path = report_path();
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    const std::string json = to_json();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "bench report: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "bench report: cannot write %s\n", path.c_str());
  }

  const auto events = telemetry::Tracer::global().events();
  if (!events.empty() || !tracepoint_dumps_.empty()) {
    const std::string tpath = trace_path();
    if (std::FILE* f = std::fopen(tpath.c_str(), "w")) {
      // Dumps add sim-clock instants on their own pid.
      const std::string json = telemetry::to_chrome_trace(events, tracepoint_dumps_);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::fprintf(stderr, "bench trace:  %s (load in chrome://tracing or "
                           "https://ui.perfetto.dev)\n",
                   tpath.c_str());
    }
  }

  if (!tracepoint_dumps_.empty()) {
    const std::string jpath = tracepoints_path();
    if (std::FILE* f = std::fopen(jpath.c_str(), "w")) {
      const std::string jsonl = telemetry::tracepoints_to_jsonl(tracepoint_dumps_);
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "bench tracepoints: %s\n", jpath.c_str());
    }
  }

  if (!flow_dumps_.empty()) {
    const std::string fpath = flows_path();
    if (std::FILE* f = std::fopen(fpath.c_str(), "w")) {
      const std::string jsonl = telemetry::flows_to_jsonl(flow_dumps_);
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "bench flows: %s\n", fpath.c_str());
    }
  }
}

}  // namespace fbdcsim::bench
