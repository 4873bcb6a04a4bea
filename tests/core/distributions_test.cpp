#include "fbdcsim/core/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace fbdcsim::core {
namespace {

TEST(LogNormalTest, MedianMatchesParameter) {
  LogNormal d{1000.0, 1.0};
  RngStream rng{3};
  std::vector<double> samples;
  for (int i = 0; i < 100'000; ++i) samples.push_back(d.sample(rng));
  std::sort(samples.begin(), samples.end());
  const double median = samples[samples.size() / 2];
  EXPECT_NEAR(median / 1000.0, 1.0, 0.05);
}

TEST(LogNormalTest, MeanFormula) {
  LogNormal d{100.0, 0.5};
  EXPECT_NEAR(d.mean(), 100.0 * std::exp(0.125), 1e-9);
  EXPECT_DOUBLE_EQ(d.median(), 100.0);
}

TEST(LogNormalTest, RejectsBadParams) {
  EXPECT_THROW(LogNormal(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LogNormal(1.0, -0.1), std::invalid_argument);
}

TEST(ZipfTest, RankZeroMostPopular) {
  Zipf z{100, 1.0};
  RngStream rng{6};
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(ZipfTest, PmfSumsToOne) {
  Zipf z{50, 0.9};
  double sum = 0.0;
  for (std::size_t k = 0; k < 50; ++k) sum += z.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(z.pmf(50), 0.0);
}

TEST(ZipfTest, EmpiricalMatchesPmf) {
  Zipf z{10, 1.2};
  RngStream rng{8};
  std::vector<int> counts(10, 0);
  const int n = 200'000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, z.pmf(k), 0.01);
  }
}

TEST(DiurnalProfileTest, PeakToTroughRatio) {
  DiurnalProfile profile{{.peak_to_trough = 2.0, .peak_hour = 12.0, .weekend_factor = 1.0}};
  const double peak = profile.factor_at(Duration::hours(12));
  const double trough = profile.factor_at(Duration::hours(0));
  EXPECT_NEAR(peak / trough, 2.0, 1e-6);
}

TEST(DiurnalProfileTest, WeekendDip) {
  DiurnalProfile profile{{.peak_to_trough = 1.5, .peak_hour = 12.0, .weekend_factor = 0.8}};
  const double weekday = profile.factor_at(Duration::hours(12));
  const double weekend = profile.factor_at(Duration::hours(12 + 24 * 5));
  EXPECT_NEAR(weekend / weekday, 0.8, 1e-6);
}

TEST(DiurnalProfileTest, RejectsBadRatio) {
  EXPECT_THROW(DiurnalProfile({.peak_to_trough = 0.5}), std::invalid_argument);
}

}  // namespace
}  // namespace fbdcsim::core
