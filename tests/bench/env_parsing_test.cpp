// Fuzz/edge tests for every environment knob the bench harness and runtime
// read: FBDCSIM_BENCH_SECONDS, FBDCSIM_THREADS, FBDCSIM_BENCH_OUT,
// FBDCSIM_FAULTS, and FBDCSIM_OBS. The contract under test:
// malformed values — empty, whitespace, overflow, negative, trailing
// garbage — always fall back to the documented default and never crash.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "common.h"
#include "fbdcsim/analysis/fct.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/telemetry/obs.h"

namespace fbdcsim::bench {
namespace {

/// Saves and restores one environment variable around a test.
class EnvVarGuard {
 public:
  explicit EnvVarGuard(const char* name) : name_{name} {
    if (const char* v = std::getenv(name)) saved_ = v;
    ::unsetenv(name);
  }
  ~EnvVarGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void set(const char* value) { ::setenv(name_, value, 1); }
  void unset() { ::unsetenv(name_); }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// Inputs that must never parse as a valid positive integer.
const std::vector<const char*> kBadIntegers{
    "",        " ",         "abc",    "12abc", "1.5",  "1e3",
    "--3",     "+-2",       "0x10",   "12 ",   "½",    "999999999999999999999999999",
    "-999999999999999999999999999"};

TEST(BenchSecondsEnvTest, UnsetYieldsNullopt) {
  EnvVarGuard guard{"FBDCSIM_BENCH_SECONDS"};
  EXPECT_EQ(bench_seconds_env(), std::nullopt);
}

TEST(BenchSecondsEnvTest, ValidValuesParse) {
  EnvVarGuard guard{"FBDCSIM_BENCH_SECONDS"};
  guard.set("7");
  EXPECT_EQ(bench_seconds_env(), 7);
  guard.set("86400");
  EXPECT_EQ(bench_seconds_env(), 86400);
}

TEST(BenchSecondsEnvTest, MalformedValuesFallBackToNullopt) {
  EnvVarGuard guard{"FBDCSIM_BENCH_SECONDS"};
  for (const char* bad : kBadIntegers) {
    guard.set(bad);
    EXPECT_EQ(bench_seconds_env(), std::nullopt) << "'" << bad << "'";
  }
}

TEST(BenchSecondsEnvTest, NonPositiveValuesFallBackToNullopt) {
  EnvVarGuard guard{"FBDCSIM_BENCH_SECONDS"};
  for (const char* bad : {"0", "-1", "-86400"}) {
    guard.set(bad);
    EXPECT_EQ(bench_seconds_env(), std::nullopt) << "'" << bad << "'";
  }
}

TEST(BenchSecondsEnvTest, EffectiveSecondsUsesNominalOnFallback) {
  EnvVarGuard guard{"FBDCSIM_BENCH_SECONDS"};
  EXPECT_EQ(BenchEnv::effective_seconds(30), 30);
  guard.set("not-a-number");
  EXPECT_EQ(BenchEnv::effective_seconds(30), 30);
  guard.set("0");
  EXPECT_EQ(BenchEnv::effective_seconds(12), 12);
  guard.set("2");
  EXPECT_EQ(BenchEnv::effective_seconds(30), 2);
}

TEST(ThreadsEnvTest, ValidValuesParse) {
  EnvVarGuard guard{"FBDCSIM_THREADS"};
  guard.set("1");
  EXPECT_EQ(runtime::env_thread_count(), 1);
  guard.set("3");
  EXPECT_EQ(runtime::env_thread_count(), 3);
  guard.set("4096");
  EXPECT_EQ(runtime::env_thread_count(), 4096);
}

TEST(ThreadsEnvTest, MalformedValuesFallBackToHardwareConcurrency) {
  EnvVarGuard guard{"FBDCSIM_THREADS"};
  const int fallback = runtime::env_thread_count();  // unset -> hardware
  ASSERT_GE(fallback, 1);
  for (const char* bad : kBadIntegers) {
    guard.set(bad);
    EXPECT_EQ(runtime::env_thread_count(), fallback) << "'" << bad << "'";
  }
  for (const char* out_of_range : {"0", "-2", "4097"}) {
    guard.set(out_of_range);
    EXPECT_EQ(runtime::env_thread_count(), fallback) << "'" << out_of_range << "'";
  }
}

TEST(BenchOutEnvTest, UnsetAndEmptyKeepTheWorkingDirectory) {
  EnvVarGuard guard{"FBDCSIM_BENCH_OUT"};
  EXPECT_EQ(resolve_out_path("bench_x.json"), "bench_x.json");
  guard.set("");
  EXPECT_EQ(resolve_out_path("bench_x.json"), "bench_x.json");
}

TEST(BenchOutEnvTest, TrailingSlashIsADirectoryEvenIfAbsent) {
  EnvVarGuard guard{"FBDCSIM_BENCH_OUT"};
  guard.set("/nonexistent/reports/");
  EXPECT_EQ(resolve_out_path("bench_x.json"), "/nonexistent/reports/bench_x.json");
}

TEST(BenchOutEnvTest, ExistingDirectoryGetsASeparator) {
  EnvVarGuard guard{"FBDCSIM_BENCH_OUT"};
  std::string dir = ::testing::TempDir();
  while (!dir.empty() && dir.back() == '/') dir.pop_back();  // exercise stat()
  ASSERT_FALSE(dir.empty());
  guard.set(dir.c_str());
  EXPECT_EQ(resolve_out_path("bench_x.json"), dir + "/bench_x.json");
}

TEST(BenchOutEnvTest, AnythingElseIsTheExactFilePath) {
  EnvVarGuard guard{"FBDCSIM_BENCH_OUT"};
  guard.set("/tmp/custom_report_name.json");
  EXPECT_EQ(resolve_out_path("bench_x.json"), "/tmp/custom_report_name.json");
}

TEST(FaultsEnvFuzzTest, FaultPlanResolutionNeverCrashes) {
  EnvVarGuard guard{"FBDCSIM_FAULTS"};
  const std::vector<const char*> specs{
      "",    " ",     "off", "light", "heavy", "OFF",  "Light",
      "0.5", "-1",    "/",   ".",     "..",    "\n",   "light\nheavy",
      "/dev/null",    "/nonexistent/profile.conf"};
  for (const char* spec : specs) {
    guard.set(spec);
    const faults::FaultConfig cfg = faults::fault_config_from_env();
    // Either a real profile or a clean fallback to off — never a crash.
    if (std::string{spec} == "light") {
      EXPECT_EQ(cfg.profile, faults::Profile::kLight);
    } else if (std::string{spec} == "heavy") {
      EXPECT_EQ(cfg.profile, faults::Profile::kHeavy);
    } else {
      EXPECT_EQ(cfg.profile, faults::Profile::kOff) << "'" << spec << "'";
    }
  }
}

TEST(FaultsEnvFuzzTest, BenchEnvFaultPlanIsNullWhenOff) {
  EnvVarGuard guard{"FBDCSIM_FAULTS"};
  {
    BenchEnv env;
    EXPECT_EQ(env.fault_plan(), nullptr);
    EXPECT_EQ(env.fault_plan(), nullptr);  // resolved once, stable
  }
  guard.set("garbage-value");
  {
    BenchEnv env;
    EXPECT_EQ(env.fault_plan(), nullptr);
  }
}

TEST(FaultsEnvFuzzTest, BenchEnvFaultPlanResolvesActiveProfiles) {
  EnvVarGuard guard{"FBDCSIM_FAULTS"};
  guard.set("heavy");
  BenchEnv env;
  const faults::FaultPlan* plan = env.fault_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->enabled());
  EXPECT_EQ(plan->config().profile, faults::Profile::kHeavy);
  EXPECT_EQ(env.fault_plan(), plan);  // cached, one instance per env
}

TEST(ObsEnvFuzzTest, ValidSpecsParse) {
  std::string error;
  auto off = telemetry::parse_obs_spec("off", &error);
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(off->mode, telemetry::ObsConfig::Mode::kOff);
  EXPECT_FALSE(off->enabled());

  auto on = telemetry::parse_obs_spec("on", &error);
  ASSERT_TRUE(on.has_value());
  EXPECT_EQ(on->mode, telemetry::ObsConfig::Mode::kOn);
  EXPECT_TRUE(on->enabled());

  auto dump = telemetry::parse_obs_spec("dump", &error);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->mode, telemetry::ObsConfig::Mode::kDump);
  EXPECT_EQ(dump->flight_recorder, 256u);  // default ring size

  auto sized = telemetry::parse_obs_spec("dump:64", &error);
  ASSERT_TRUE(sized.has_value());
  EXPECT_EQ(sized->mode, telemetry::ObsConfig::Mode::kDump);
  EXPECT_EQ(sized->flight_recorder, 64u);

  auto max = telemetry::parse_obs_spec("dump:1048576", &error);
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max->flight_recorder, 1048576u);

  // The flows level: `on` semantics plus the per-flow ledger.
  auto flows = telemetry::parse_obs_spec("flows", &error);
  ASSERT_TRUE(flows.has_value());
  EXPECT_EQ(flows->mode, telemetry::ObsConfig::Mode::kOn);
  EXPECT_TRUE(flows->enabled());
  EXPECT_TRUE(flows->flows);
  EXPECT_EQ(flows->flow_capacity, 4096u);  // default ring size

  auto flows_sized = telemetry::parse_obs_spec("flows:64", &error);
  ASSERT_TRUE(flows_sized.has_value());
  EXPECT_TRUE(flows_sized->flows);
  EXPECT_EQ(flows_sized->flow_capacity, 64u);

  auto flows_max = telemetry::parse_obs_spec("flows:1048576", &error);
  ASSERT_TRUE(flows_max.has_value());
  EXPECT_EQ(flows_max->flow_capacity, 1048576u);

  // The plain levels never switch the ledger on.
  EXPECT_FALSE(on->flows);
  EXPECT_FALSE(dump->flows);
}

TEST(ObsEnvFuzzTest, MalformedSpecsAreRejectedWithAReason) {
  const std::vector<const char*> bad{
      "",       " ",        "ON",       "Off",     "Dump",      "on ",
      " on",    "dump:",    "dump:0",   "dump:-1", "dump:abc",  "dump:1.5",
      "dump:1048577",       "dump:99999999999999999999",        "dumpling",
      "on,dump", "off;on",  "dump:64:128", "\n",   "on\n",
      "flows:",  "flows:0", "flows:-1",    "flows:abc", "flows:1.5",
      "flows:1048577",      "flows:99999999999999999999",       "Flows",
      "FLOWS",   "flows 64", " flows",     "flows:64:128", "flowses"};
  for (const char* spec : bad) {
    std::string error;
    EXPECT_EQ(telemetry::parse_obs_spec(spec, &error), std::nullopt)
        << "'" << spec << "'";
    EXPECT_FALSE(error.empty()) << "'" << spec << "' rejected without a reason";
  }
  // The error pointer is optional.
  EXPECT_EQ(telemetry::parse_obs_spec("garbage"), std::nullopt);
}

TEST(ObsEnvFuzzTest, EnvResolutionFallsBackToOffAndNeverCrashes) {
  EnvVarGuard guard{"FBDCSIM_OBS"};
  EXPECT_FALSE(telemetry::obs_config_from_env().enabled());  // unset
  for (const char* bad :
       {"", "garbage", "ON", "dump:0", "dump:abc", "½", "flows:0", "flows:abc",
        "Flows", "flows "}) {
    guard.set(bad);
    const telemetry::ObsConfig cfg = telemetry::obs_config_from_env();
    EXPECT_EQ(cfg.mode, telemetry::ObsConfig::Mode::kOff) << "'" << bad << "'";
    EXPECT_FALSE(cfg.flows) << "'" << bad << "'";
  }
  guard.set("dump:32");
  const telemetry::ObsConfig cfg = telemetry::obs_config_from_env();
  EXPECT_EQ(cfg.mode, telemetry::ObsConfig::Mode::kDump);
  EXPECT_EQ(cfg.flight_recorder, 32u);
  guard.set("flows:32");
  const telemetry::ObsConfig fcfg = telemetry::obs_config_from_env();
  EXPECT_EQ(fcfg.mode, telemetry::ObsConfig::Mode::kOn);
  EXPECT_TRUE(fcfg.flows);
  EXPECT_EQ(fcfg.flow_capacity, 32u);
}

TEST(ObsEnvFuzzTest, BenchEnvResolvesObsOncePerEnv) {
  EnvVarGuard guard{"FBDCSIM_OBS"};
  guard.set("on");
  BenchEnv env;
  const telemetry::ObsConfig& first = env.obs();
  EXPECT_TRUE(first.enabled());
  guard.set("off");  // must not affect the already-resolved env
  EXPECT_TRUE(env.obs().enabled());
  EXPECT_EQ(&env.obs(), &first);  // cached, one instance per env
  BenchEnv fresh;
  EXPECT_FALSE(fresh.obs().enabled());
}

TEST(BenchReportObsTest, TimeseriesSectionAppearsOnlyWhenAdded) {
  // Route the reports the destructors write into the test temp dir.
  EnvVarGuard out_guard{"FBDCSIM_BENCH_OUT"};
  const std::string tmp = ::testing::TempDir();
  out_guard.set(tmp.c_str());
  BenchReport plain{"obs_section_probe"};
  EXPECT_EQ(plain.to_json().find("\"timeseries\""), std::string::npos);

  telemetry::TimeSeriesProbe probe{core::Duration::micros(10), 4};
  probe.add_gauge("g", [] { return 7; });
  probe.sample_tick(0);
  BenchReport with{"obs_section_probe"};
  with.add_timeseries("k", probe.snapshot());
  const std::string json = with.to_json();
  EXPECT_NE(json.find("\"timeseries\":{\"k\":"), std::string::npos);
  EXPECT_NE(json.find("\"g\":{\"period_ns\":10000"), std::string::npos);
  // Re-adding a key overwrites rather than duplicating.
  with.add_timeseries("k", probe.snapshot());
  const std::string rejson = with.to_json();
  EXPECT_EQ(rejson.find("\"timeseries\":{\"k\":"), rejson.rfind("\"timeseries\":{\"k\":"));
  EXPECT_EQ(rejson.find("\"g\":{"), rejson.rfind("\"g\":{"));
}

TEST(BenchReportObsTest, TracepointsPathSitsNextToTheReport) {
  EnvVarGuard guard{"FBDCSIM_BENCH_OUT"};
  guard.set("/tmp/obs_path_test/");
  BenchReport report{"pathcheck"};
  EXPECT_EQ(report.report_path(), "/tmp/obs_path_test/bench_pathcheck.json");
  EXPECT_EQ(report.tracepoints_path(),
            "/tmp/obs_path_test/bench_pathcheck.tracepoints.jsonl");
}

TEST(ExporterBytes, BenchReportJsonIsExact) {
  // Every knob the report reads is fixed; git and wall_seconds are masked
  // below. The metrics section is to_json's (pinned in telemetry_test).
  EnvVarGuard out_guard{"FBDCSIM_BENCH_OUT"};
  out_guard.set(::testing::TempDir().c_str());
  EnvVarGuard threads_guard{"FBDCSIM_THREADS"};
  threads_guard.set("3");
  EnvVarGuard seconds_guard{"FBDCSIM_BENCH_SECONDS"};
  seconds_guard.set("5");
  EnvVarGuard faults_guard{"FBDCSIM_FAULTS"};
  faults_guard.set("light");
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  reg.reset();
  reg.counter("sim.events", telemetry::Kind::kSim).add(2'500);
  reg.counter("sim.run_wall_us", telemetry::Kind::kWall).add(1'000);

  BenchReport report{"pin_probe", 7};
  report.set_status(2);
  report.add_extra("ratio", 2.0 / 3.0);
  report.add_extra("count", std::int64_t{-42});
  report.add_extra("label \"q\"", std::string{"a\"b\\c\n"});
  report.add_extra("count", std::int64_t{43});  // overwrite keeps the slot
  telemetry::TimeSeriesProbe probe{core::Duration::micros(10), 2};
  std::int64_t v = 5;
  probe.add_gauge("g", [&v] { return v; });
  for (int i = 0; i < 5; ++i) {
    probe.sample_tick(i * 10'000);
    v -= 3;
  }
  report.add_timeseries("rack 1", probe.snapshot());
  analysis::FctTable fct;
  telemetry::FlowLedgerRecord r;
  r.bytes = 3'000;
  r.start_ns = 1'000;
  r.completed_ns = 21'000;
  r.ideal_ns = 8'000;
  fct.add(r);
  report.add_fct(fct.to_json());

  std::string json = report.to_json();
  json = std::regex_replace(json, std::regex{R"("git":"[^"]*")"}, R"("git":"REV")");
  json = std::regex_replace(json, std::regex{R"("wall_seconds":[0-9]+\.[0-9]{6},)"},
                            R"("wall_seconds":W,)");
  const std::string expected =
      std::string{
          R"({"bench":"pin_probe","schema":1,"git":"REV","seed":7,"threads":3,)"
          R"("bench_seconds":5,"wall_seconds":W,"status":2,"telemetry_enabled":)"} +
      (FBDCSIM_TELEMETRY_ENABLED ? "true" : "false") +
      R"(,"faults":"light","derived":{"sim_events_per_sec":2500000.0},)"
      R"("extra":{"ratio":0.666667,"count":43,"label \"q\"":"a\"b\\c\n"},)"
      R"("timeseries":{"rack 1":{"series":{"g":{"period_ns":10000,"bin_samples":4,)"
      R"("samples":5,"bins":[[0,4,-4,5,-4,2],[40000,1,-7,-7,-7,-7]]}}}},)"
      R"("fct":{"completed":1,"incomplete":0,"cells":[{"role":"Web",)"
      R"("locality":"Intra-Rack","bucket":"le4k","count":1,"bytes":3000,)"
      R"("fct_us":{"p50":20,"p90":20,"p99":20,"p999":20,"max":20},"slowdown":{"p50":2.5,)"
      R"("p90":2.5,"p99":2.5,"p999":2.5,"max":2.5}}]},"metrics":)" +
      telemetry::to_json(reg.snapshot()) + "}";
  EXPECT_EQ(json, expected);
}

}  // namespace
}  // namespace fbdcsim::bench
