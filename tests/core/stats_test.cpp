#include "fbdcsim/core/stats.h"

#include <gtest/gtest.h>

namespace fbdcsim::core {
namespace {

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStatsTest, MergeMatchesSequential) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37;
    a.add(v);
    all.add(v);
  }
  for (int i = 50; i < 120; ++i) {
    const double v = i * 0.37;
    b.add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2);
  OnlineStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(CdfTest, QuantilesOfKnownData) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 100.0);
  EXPECT_NEAR(cdf.median(), 50.5, 1e-9);
  EXPECT_NEAR(cdf.p10(), 10.9, 1e-9);
  EXPECT_NEAR(cdf.p90(), 90.1, 1e-9);
}

TEST(CdfTest, EmptyReturnsZero) {
  Cdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.median(), 0.0);
}

TEST(CdfTest, SingleSample) {
  Cdf cdf;
  cdf.add(42.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 42.0);
}

TEST(CdfTest, FractionAtOrBelow) {
  Cdf cdf{{1.0, 2.0, 3.0, 4.0}};
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(10.0), 1.0);
}

TEST(CdfTest, SeriesIsMonotonic) {
  Cdf cdf;
  for (int i = 0; i < 1000; ++i) cdf.add(static_cast<double>((i * 7919) % 513));
  const auto series = cdf.series(51);
  ASSERT_EQ(series.size(), 51u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(series[i - 1].value, series[i].value);
    EXPECT_LT(series[i - 1].quantile, series[i].quantile);
  }
}

TEST(CdfTest, AddAllAndUnsortedInput) {
  Cdf cdf;
  const std::vector<double> vals{5.0, 1.0, 3.0};
  cdf.add_all(vals);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 5.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 3.0);
}

TEST(CdfTest, MergeCombinesSampleSets) {
  Cdf a;
  a.add_all(std::vector<double>{1.0, 2.0, 3.0});
  Cdf b;
  b.add_all(std::vector<double>{10.0, 20.0});
  a.merge(b);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 20.0);
  EXPECT_DOUBLE_EQ(a.median(), 3.0);
  // The merged-into CDF is equivalent to one built from all samples at once.
  Cdf all;
  all.add_all(std::vector<double>{1.0, 2.0, 3.0, 10.0, 20.0});
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q)) << q;
  }
  // The source is untouched.
  EXPECT_EQ(b.size(), 2u);
}

TEST(CdfTest, MergeEmptyIsNoOp) {
  Cdf a;
  a.add(4.0);
  a.merge(Cdf{});
  EXPECT_EQ(a.size(), 1u);
  Cdf empty;
  empty.merge(a);
  EXPECT_EQ(empty.size(), 1u);
  EXPECT_DOUBLE_EQ(empty.median(), 4.0);
}

}  // namespace
}  // namespace fbdcsim::core
