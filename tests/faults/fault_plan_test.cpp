// The fault layer's determinism contract, decision semantics, and spec
// parsing. Every decision must be a pure function of (seed, kind, entity,
// bucket) — no call order, thread, or shard dependence — and every
// statistical rate must track its configured probability.
#include "fbdcsim/faults/fault_plan.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace fbdcsim::faults {
namespace {

using core::Duration;
using core::HostId;
using core::LinkId;
using core::TimePoint;

/// A fully populated custom config with round probabilities, for rate and
/// semantics tests (the built-in tiers keep their production-ish values).
FaultConfig test_config() {
  FaultConfig c;
  c.profile = Profile::kCustom;
  c.seed = 7;
  c.link_fail_prob = 0.10;
  c.link_degrade_prob = 0.20;
  c.link_degrade_factor = 0.5;
  c.buffer_shrink_prob = 0.25;
  c.buffer_shrink_factor = 0.5;
  c.host_crash_prob = 0.10;
  c.scribe_drop_prob = 0.30;
  c.scribe_max_retries = 3;
  c.scribe_delay_prob = 0.20;
  c.tag_failure_prob = 0.15;
  c.capture_drop_prob = 0.50;
  return c;
}

TEST(FaultPlanTest, ToStringCoversEveryProfile) {
  EXPECT_STREQ(to_string(Profile::kOff), "off");
  EXPECT_STREQ(to_string(Profile::kLight), "light");
  EXPECT_STREQ(to_string(Profile::kHeavy), "heavy");
  EXPECT_STREQ(to_string(Profile::kCustom), "custom");
}

TEST(FaultPlanTest, DefaultConfigIsDisabledAndInert) {
  const FaultPlan plan{FaultConfig{}};
  EXPECT_FALSE(plan.enabled());
  for (std::uint32_t i = 0; i < 512; ++i) {
    const TimePoint at = TimePoint::zero() + Duration::seconds(i * 37);
    EXPECT_FALSE(plan.link_failed(LinkId{i}, at));
    EXPECT_DOUBLE_EQ(plan.link_capacity_factor(LinkId{i}, at), 1.0);
    EXPECT_FALSE(plan.host_down(HostId{i}, at));
    EXPECT_DOUBLE_EQ(plan.buffer_shrink_factor(i), 1.0);
    EXPECT_FALSE(plan.scribe_attempt_fails(i, 0));
    EXPECT_FALSE(plan.scribe_delayed(i));
    EXPECT_FALSE(plan.tagger_lookup_fails(i));
    EXPECT_FALSE(plan.capture_drop(i, 1.0));
  }
}

TEST(FaultPlanTest, BuiltinProfilesAreEnabledAndInRange) {
  for (const FaultConfig& c : {light_profile(), heavy_profile()}) {
    const FaultPlan plan{c};
    EXPECT_TRUE(plan.enabled());
    for (const double p : {c.link_fail_prob, c.link_degrade_prob, c.buffer_shrink_prob,
                           c.host_crash_prob, c.scribe_drop_prob, c.scribe_delay_prob,
                           c.tag_failure_prob, c.capture_drop_prob}) {
      EXPECT_GT(p, 0.0);
      EXPECT_LT(p, 1.0);
    }
    for (const double f : {c.link_degrade_factor, c.buffer_shrink_factor}) {
      EXPECT_GT(f, 0.0);
      EXPECT_LE(f, 1.0);
    }
    EXPECT_GE(c.scribe_max_retries, 1);
  }
  // Heavy strictly dominates light on every fault rate.
  const FaultConfig l = light_profile();
  const FaultConfig h = heavy_profile();
  EXPECT_GT(h.link_fail_prob, l.link_fail_prob);
  EXPECT_GT(h.host_crash_prob, l.host_crash_prob);
  EXPECT_GT(h.scribe_drop_prob, l.scribe_drop_prob);
  EXPECT_GT(h.tag_failure_prob, l.tag_failure_prob);
  EXPECT_GT(h.capture_drop_prob, l.capture_drop_prob);
}

TEST(FaultPlanTest, DecisionsArePureFunctions) {
  const FaultPlan a{test_config()};
  const FaultPlan b{test_config()};  // independent instance, same config
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const TimePoint at = TimePoint::zero() + Duration::seconds(i * 61);
    EXPECT_EQ(a.link_failed(LinkId{i}, at), b.link_failed(LinkId{i}, at));
    EXPECT_EQ(a.link_capacity_factor(LinkId{i}, at), b.link_capacity_factor(LinkId{i}, at));
    EXPECT_EQ(a.host_down(HostId{i}, at), b.host_down(HostId{i}, at));
    EXPECT_EQ(a.buffer_shrink_factor(i), b.buffer_shrink_factor(i));
    EXPECT_EQ(a.scribe_attempt_fails(i, static_cast<int>(i % 4)),
              b.scribe_attempt_fails(i, static_cast<int>(i % 4)));
    EXPECT_EQ(a.scribe_delayed(i), b.scribe_delayed(i));
    EXPECT_EQ(a.scribe_delay(i).count_nanos(), b.scribe_delay(i).count_nanos());
    EXPECT_EQ(a.tagger_lookup_fails(i), b.tagger_lookup_fails(i));
    EXPECT_EQ(a.capture_drop(i, 0.5), b.capture_drop(i, 0.5));
  }
  // Repeating a query on the same instance never changes the answer.
  EXPECT_EQ(a.link_failed(LinkId{9}, TimePoint::zero()),
            a.link_failed(LinkId{9}, TimePoint::zero()));
}

TEST(FaultPlanTest, SeedChangesTheSchedule) {
  FaultConfig other = test_config();
  other.seed = 8;
  const FaultPlan a{test_config()};
  const FaultPlan b{other};
  int differing = 0;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const TimePoint at = TimePoint::zero() + Duration::minutes(i);
    if (a.link_failed(LinkId{i}, at) != b.link_failed(LinkId{i}, at)) ++differing;
    if (a.host_down(HostId{i}, at) != b.host_down(HostId{i}, at)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlanTest, DistinctDecisionKindsDoNotCorrelate) {
  // With every probability at 0.10, the same (entity, bucket) should not
  // produce identical outcomes across decision kinds — the kind is hashed
  // into the decision.
  FaultConfig c = test_config();
  c.link_fail_prob = 0.10;
  c.host_crash_prob = 0.10;
  c.host_epoch = Duration::minutes(1);  // same bucketing as link faults
  const FaultPlan plan{c};
  int both = 0;
  int link_only = 0;
  int host_only = 0;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const TimePoint at = TimePoint::zero() + Duration::minutes(i % 60);
    const bool lf = plan.link_failed(LinkId{i}, at);
    const bool hd = plan.host_down(HostId{i}, at);
    both += static_cast<int>(lf && hd);
    link_only += static_cast<int>(lf && !hd);
    host_only += static_cast<int>(!lf && hd);
  }
  // Independence: P(both) ~ 1%, each exclusive ~ 9% of 5000.
  EXPECT_LT(both, 150);
  EXPECT_GT(link_only, 250);
  EXPECT_GT(host_only, 250);
}

TEST(FaultPlanTest, LinkFailureRateTracksConfig) {
  const FaultPlan plan{test_config()};  // link_fail_prob = 0.10
  int failed = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const LinkId link{static_cast<std::uint32_t>(i % 500)};
    const TimePoint at = TimePoint::zero() + Duration::minutes(i / 500);
    failed += static_cast<int>(plan.link_failed(link, at));
  }
  const double rate = static_cast<double>(failed) / trials;
  EXPECT_NEAR(rate, 0.10, 0.015);
}

TEST(FaultPlanTest, LinkCapacityFactorSemantics) {
  // Failure wins over degradation.
  FaultConfig c = test_config();
  c.link_fail_prob = 1.0;
  c.link_degrade_prob = 1.0;
  EXPECT_DOUBLE_EQ(FaultPlan{c}.link_capacity_factor(LinkId{1}, TimePoint::zero()), 0.0);
  // Degradation alone yields the configured factor.
  c.link_fail_prob = 0.0;
  EXPECT_DOUBLE_EQ(FaultPlan{c}.link_capacity_factor(LinkId{1}, TimePoint::zero()),
                   c.link_degrade_factor);
  // Healthy link: full capacity.
  c.link_degrade_prob = 0.0;
  EXPECT_DOUBLE_EQ(FaultPlan{c}.link_capacity_factor(LinkId{1}, TimePoint::zero()), 1.0);
}

TEST(FaultPlanTest, LinkFaultsAreConstantWithinAMinute) {
  const FaultPlan plan{test_config()};
  for (std::uint32_t link = 0; link < 200; ++link) {
    const TimePoint start = TimePoint::zero() + Duration::minutes(link);
    const bool at_start = plan.link_failed(LinkId{link}, start);
    EXPECT_EQ(plan.link_failed(LinkId{link}, start + Duration::seconds(30)), at_start);
    EXPECT_EQ(plan.link_failed(LinkId{link}, start + Duration::nanos(59'999'999'999LL)),
              at_start);
  }
}

TEST(FaultPlanTest, HostCrashEpochSemantics) {
  const FaultPlan plan{test_config()};  // host_crash_prob = 0.10, epoch 10 min
  int down = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const HostId host{static_cast<std::uint32_t>(i % 500)};
    const TimePoint epoch_start =
        TimePoint::zero() + Duration::minutes(10 * (i / 500));
    const bool is_down = plan.host_down(host, epoch_start);
    down += static_cast<int>(is_down);
    // The whole epoch agrees with its first instant.
    EXPECT_EQ(plan.host_down(host, epoch_start + Duration::minutes(9)), is_down);
  }
  EXPECT_NEAR(static_cast<double>(down) / trials, 0.10, 0.015);
}

TEST(FaultPlanTest, BufferShrinkIsPerRunAndTracksRate) {
  const FaultConfig c = test_config();  // shrink_prob 0.25, factor 0.5
  const FaultPlan plan{c};
  int shrunk = 0;
  for (std::uint64_t salt = 0; salt < 4000; ++salt) {
    const double f = plan.buffer_shrink_factor(salt);
    EXPECT_TRUE(f == 1.0 || f == c.buffer_shrink_factor) << f;
    shrunk += static_cast<int>(f != 1.0);
    EXPECT_DOUBLE_EQ(plan.buffer_shrink_factor(salt), f);  // per-run stable
  }
  EXPECT_NEAR(shrunk / 4000.0, 0.25, 0.03);
}

TEST(FaultPlanTest, SampleKeyIsStableAndSensitive) {
  const std::uint64_t key = FaultPlan::sample_key(17, 1'000'000'000, 0xABCD);
  EXPECT_EQ(FaultPlan::sample_key(17, 1'000'000'000, 0xABCD), key);
  EXPECT_NE(FaultPlan::sample_key(18, 1'000'000'000, 0xABCD), key);
  EXPECT_NE(FaultPlan::sample_key(17, 1'000'000'001, 0xABCD), key);
  EXPECT_NE(FaultPlan::sample_key(17, 1'000'000'000, 0xABCE), key);
}

TEST(FaultPlanTest, ScribeBackoffIsExponential) {
  FaultConfig c = test_config();
  c.scribe_backoff_base = Duration::millis(50);
  const FaultPlan plan{c};
  EXPECT_EQ(plan.scribe_backoff(0).count_nanos(), 0);
  EXPECT_EQ(plan.scribe_backoff(1).count_nanos(), Duration::millis(50).count_nanos());
  EXPECT_EQ(plan.scribe_backoff(2).count_nanos(), Duration::millis(150).count_nanos());
  EXPECT_EQ(plan.scribe_backoff(3).count_nanos(), Duration::millis(350).count_nanos());
  EXPECT_EQ(plan.scribe_backoff(4).count_nanos(), Duration::millis(750).count_nanos());
}

TEST(FaultPlanTest, ScribeDropBoundaryProbabilities) {
  FaultConfig c = test_config();
  c.scribe_drop_prob = 1.0;
  const FaultPlan always{c};
  c.scribe_drop_prob = 0.0;
  const FaultPlan never{c};
  for (std::uint64_t key = 0; key < 200; ++key) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      EXPECT_TRUE(always.scribe_attempt_fails(key, attempt));
      EXPECT_FALSE(never.scribe_attempt_fails(key, attempt));
    }
  }
}

TEST(FaultPlanTest, ScribeRetryAttemptsAreIndependent) {
  const FaultPlan plan{test_config()};  // drop 0.30
  // P(attempt 0 and attempt 1 both fail) should be ~0.09, not ~0.30 —
  // attempts are separate decisions, not one per-sample coin.
  int first = 0;
  int both = 0;
  const int trials = 20000;
  for (std::uint64_t key = 0; key < trials; ++key) {
    const bool f0 = plan.scribe_attempt_fails(key, 0);
    first += static_cast<int>(f0);
    both += static_cast<int>(f0 && plan.scribe_attempt_fails(key, 1));
  }
  EXPECT_NEAR(first / static_cast<double>(trials), 0.30, 0.02);
  EXPECT_NEAR(both / static_cast<double>(trials), 0.09, 0.02);
}

TEST(FaultPlanTest, ScribeDelayIsPositiveAndBounded) {
  FaultConfig c = test_config();
  c.scribe_max_delay = Duration::seconds(30);
  const FaultPlan plan{c};
  int delayed = 0;
  for (std::uint64_t key = 0; key < 5000; ++key) {
    delayed += static_cast<int>(plan.scribe_delayed(key));
    const Duration d = plan.scribe_delay(key);
    EXPECT_GT(d.count_nanos(), 0);
    EXPECT_LE(d.count_nanos(), c.scribe_max_delay.count_nanos());
  }
  EXPECT_NEAR(delayed / 5000.0, c.scribe_delay_prob, 0.02);
}

TEST(FaultPlanTest, CaptureDropScalesWithOccupancy) {
  const FaultPlan plan{test_config()};  // capture_drop_prob = 0.50
  int idle = 0;
  int busy = 0;
  const int trials = 20000;
  for (std::uint64_t key = 0; key < trials; ++key) {
    idle += static_cast<int>(plan.capture_drop(key, 0.0));
    busy += static_cast<int>(plan.capture_drop(key, 1.0));
  }
  // p = 0.5 * (0.1 + 0.9 * occ): 5% when idle, 50% when saturated.
  EXPECT_NEAR(idle / static_cast<double>(trials), 0.05, 0.01);
  EXPECT_NEAR(busy / static_cast<double>(trials), 0.50, 0.02);
  // Out-of-range occupancies clamp instead of misbehaving.
  for (std::uint64_t key = 0; key < 500; ++key) {
    EXPECT_EQ(plan.capture_drop(key, -3.0), plan.capture_drop(key, 0.0));
    EXPECT_EQ(plan.capture_drop(key, 42.0), plan.capture_drop(key, 1.0));
  }
}

TEST(FaultSpecTest, BuiltinNamesParse) {
  std::string error;
  const auto off = parse_fault_spec("off", &error);
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(off->profile, Profile::kOff);
  const auto light = parse_fault_spec("light", &error);
  ASSERT_TRUE(light.has_value());
  EXPECT_EQ(light->profile, Profile::kLight);
  const auto heavy = parse_fault_spec("  heavy  ", &error);  // whitespace trims
  ASSERT_TRUE(heavy.has_value());
  EXPECT_EQ(heavy->profile, Profile::kHeavy);
}

TEST(FaultSpecTest, EmptyAndMissingFileAreErrors) {
  std::string error;
  EXPECT_FALSE(parse_fault_spec("", &error).has_value());
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_fault_spec("   ", &error).has_value());
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_fault_spec("/nonexistent/fault/profile.conf", &error).has_value());
  EXPECT_NE(error.find("not a regular file"), std::string::npos);
  // Directories and devices are rejected too, not read as empty profiles.
  error.clear();
  EXPECT_FALSE(parse_fault_spec("/tmp", &error).has_value());
  EXPECT_NE(error.find("not a regular file"), std::string::npos);
  error.clear();
  EXPECT_FALSE(parse_fault_spec("/dev/null", &error).has_value());
}

class FaultProfileFileTest : public ::testing::Test {
 protected:
  /// Writes `text` to a fresh file under the test temp dir. The path names
  /// the running test and the process, so cases that run in parallel
  /// processes never share a file.
  std::string write_profile(const std::string& text) {
    const std::string path =
        ::testing::TempDir() + "fault_profile_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
        std::to_string(::getpid()) + "_" + std::to_string(counter_++) + ".conf";
    std::ofstream out{path};
    out << text;
    written_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : written_) std::remove(path.c_str());
  }

  int counter_{0};
  std::vector<std::string> written_;
};

TEST_F(FaultProfileFileTest, RoundTripsEveryKey) {
  const std::string path = write_profile(
      "# stress profile used by the robustness study\n"
      "seed = 99\n"
      "link_fail_prob = 0.02\n"
      "link_degrade_prob = 0.04\n"
      "link_degrade_factor = 0.4\n"
      "buffer_shrink_prob = 0.3\n"
      "buffer_shrink_factor = 0.6\n"
      "host_crash_prob = 0.05   # trailing comment\n"
      "host_epoch_ms = 60000\n"
      "\n"
      "scribe_drop_prob = 0.2\n"
      "scribe_max_retries = 5\n"
      "scribe_backoff_base_ms = 25\n"
      "scribe_delay_prob = 0.1\n"
      "scribe_max_delay_ms = 45000\n"
      "tag_failure_prob = 0.02\n"
      "capture_drop_prob = 0.03\n");
  std::string error;
  const auto config = parse_fault_spec(path, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->profile, Profile::kCustom);
  EXPECT_EQ(config->seed, 99u);
  EXPECT_DOUBLE_EQ(config->link_fail_prob, 0.02);
  EXPECT_DOUBLE_EQ(config->link_degrade_factor, 0.4);
  EXPECT_DOUBLE_EQ(config->host_crash_prob, 0.05);
  EXPECT_EQ(config->host_epoch.count_nanos(), Duration::seconds(60).count_nanos());
  EXPECT_EQ(config->scribe_max_retries, 5);
  EXPECT_EQ(config->scribe_backoff_base.count_nanos(), Duration::millis(25).count_nanos());
  EXPECT_EQ(config->scribe_max_delay.count_nanos(), Duration::seconds(45).count_nanos());
  EXPECT_DOUBLE_EQ(config->capture_drop_prob, 0.03);
}

TEST_F(FaultProfileFileTest, CommentsAndBlankLinesOnlyIsAValidOffLikeProfile) {
  const std::string path = write_profile("# nothing set\n\n   \n# still nothing\n");
  std::string error;
  const auto config = parse_fault_spec(path, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->profile, Profile::kCustom);
  EXPECT_DOUBLE_EQ(config->link_fail_prob, 0.0);  // defaults
}

TEST_F(FaultProfileFileTest, RejectsMalformedLinesWithLineNumbers) {
  const struct {
    const char* text;
    const char* expect_in_error;
  } cases[] = {
      {"not an assignment\n", "expected 'key = value'"},
      {"unknown_knob = 0.5\n", "unknown key"},
      {"link_fail_prob = 1.5\n", "probability"},
      {"link_fail_prob = -0.1\n", "probability"},
      {"link_degrade_factor = 0\n", "factor"},
      {"link_degrade_factor = 1.5\n", "factor"},
      {"seed = -4\n", "unsigned"},
      {"seed = twelve\n", "unsigned"},
      {"host_epoch_ms = 0\n", "duration"},
      {"scribe_max_retries = 99\n", "[0,16]"},
      {"capture_drop_prob = 0.5extra\n", "probability"},
  };
  for (const auto& c : cases) {
    const std::string path = write_profile(std::string{"# header\n"} + c.text);
    std::string error;
    EXPECT_FALSE(parse_fault_spec(path, &error).has_value()) << c.text;
    EXPECT_NE(error.find(":2:"), std::string::npos) << error;  // line number
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos) << error;
  }
}

/// Saves and restores FBDCSIM_FAULTS around each env-driven test.
class FaultsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* v = std::getenv("FBDCSIM_FAULTS")) saved_ = v;
  }
  void TearDown() override {
    if (saved_.has_value()) {
      ::setenv("FBDCSIM_FAULTS", saved_->c_str(), 1);
    } else {
      ::unsetenv("FBDCSIM_FAULTS");
    }
  }

  std::optional<std::string> saved_;
};

TEST_F(FaultsEnvTest, UnsetAndOffYieldDisabledConfig) {
  ::unsetenv("FBDCSIM_FAULTS");
  EXPECT_EQ(fault_config_from_env().profile, Profile::kOff);
  ::setenv("FBDCSIM_FAULTS", "off", 1);
  EXPECT_EQ(fault_config_from_env().profile, Profile::kOff);
}

TEST_F(FaultsEnvTest, BuiltinProfilesResolve) {
  ::setenv("FBDCSIM_FAULTS", "light", 1);
  EXPECT_EQ(fault_config_from_env().profile, Profile::kLight);
  ::setenv("FBDCSIM_FAULTS", "heavy", 1);
  EXPECT_EQ(fault_config_from_env().profile, Profile::kHeavy);
}

TEST_F(FaultsEnvTest, MalformedValuesFallBackToOffWithoutCrashing) {
  for (const char* bad : {"", "  ", "LIGHT", "medium", "/no/such/file", "light;heavy",
                          "0.5", "../../../etc/passwd\n"}) {
    ::setenv("FBDCSIM_FAULTS", bad, 1);
    EXPECT_EQ(fault_config_from_env().profile, Profile::kOff) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace fbdcsim::faults
