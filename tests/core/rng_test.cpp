#include "fbdcsim/core/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>

namespace fbdcsim::core {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  RngStream a{123};
  RngStream b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  RngStream a{1};
  RngStream b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, ForkIsIndependentOfDrawCount) {
  // Forking must depend only on the seed, not on how many values were
  // drawn — this is what guarantees adding a component doesn't perturb
  // existing ones.
  RngStream a{99};
  RngStream b{99};
  (void)b.uniform();
  (void)b.uniform();
  RngStream fa = a.fork("child");
  RngStream fb = b.fork("child");
  EXPECT_DOUBLE_EQ(fa.uniform(), fb.uniform());
}

TEST(RngTest, NamedForksAreIndependent) {
  RngStream root{7};
  RngStream a = root.fork("alpha");
  RngStream b = root.fork("beta");
  EXPECT_NE(a.uniform(), b.uniform());
}

TEST(RngTest, IndexedForksAreIndependent) {
  RngStream root{7};
  RngStream a = root.fork("host", 0);
  RngStream b = root.fork("host", 1);
  EXPECT_NE(a.uniform(), b.uniform());
}

TEST(RngTest, UniformIntInRange) {
  RngStream rng{5};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, UniformRange) {
  RngStream rng{5};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  RngStream rng{5};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMean) {
  RngStream rng{11};
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, PoissonMean) {
  RngStream rng{13};
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(9.0));
  EXPECT_NEAR(sum / n, 9.0, 0.1);
}

// RngStream::poisson inlines the small-mean branch of libstdc++'s
// std::poisson_distribution; these pin it to the distribution draw for
// draw, engine state included.
std::int64_t std_poisson(RngStream& rng, double mean) {
  return std::poisson_distribution<std::int64_t>{mean}(rng.engine());
}

void expect_poisson_matches_std(std::uint64_t seed, double mean, int draws) {
  RngStream got{seed};
  RngStream want{seed};
  for (int i = 0; i < draws; ++i) {
    ASSERT_EQ(got.poisson(mean), std_poisson(want, mean))
        << "seed " << seed << " mean " << mean << " draw " << i;
  }
  // Same number of engine draws consumed.
  EXPECT_EQ(got.engine()(), want.engine()()) << "seed " << seed << " mean " << mean;
}

TEST(RngPoissonConformance, MatchesStdBelowTwelve) {
  // Fixed means: the 1:30,000 sampler's range (1e-9 .. 1e-3), means whose
  // 1 - mean shortcut bound sits among typical draws (0.1 .. 0.9), and the
  // branch edge just below 12.
  const double fixed[] = {1e-9,  1e-6,  1.0 / 30'000, 1e-3, 0.01, 0.1,   0.25,     0.5,
                          0.75,  0.9,   0.999,        1.0,  1.5,  2.5,   5.0,      9.0,
                          11.5,  11.999999};
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    for (const double mean : fixed) expect_poisson_matches_std(seed, mean, 2'000);
  }
  RngStream pick{2015};
  for (int i = 0; i < 400; ++i) {
    const double mean = pick.uniform(0.0, 12.0);
    if (mean <= 0.0) continue;
    expect_poisson_matches_std(1000 + static_cast<std::uint64_t>(i), mean, 500);
  }
}

TEST(RngPoissonConformance, FirstDrawOnEitherBoundary) {
  // Put the stream's first uniform draw u exactly on, and a few ulps
  // either side of, each comparison: the 1 - mean - 1e-12 shortcut bound
  // and the exp(-mean) loop threshold.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    RngStream peek{seed};
    const double u = peek.uniform();
    if (u <= 0.0 || u >= 1.0 - 1e-9) continue;
    for (const double at : {(1.0 - u) - 1e-12, -std::log(u)}) {
      double mean = at;
      for (int step = 0; step < 4; ++step) mean = std::nextafter(mean, 0.0);
      for (int step = 0; step < 8; ++step) {
        if (mean > 0.0 && mean < 12.0) expect_poisson_matches_std(seed, mean, 4);
        mean = std::nextafter(mean, 12.0);
      }
    }
  }
}

TEST(RngPoissonConformance, TwelveAndAboveUseStdDistribution) {
  for (const double mean : {12.0, 12.000001, 20.0, 100.0, 1e4}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) expect_poisson_matches_std(seed, mean, 1'000);
  }
}

TEST(SplitMixTest, Deterministic) {
  EXPECT_EQ(splitmix64(0), splitmix64(0));
  EXPECT_NE(splitmix64(0), splitmix64(1));
}

TEST(HashNameTest, DistinctNames) {
  EXPECT_NE(hash_name("a"), hash_name("b"));
  EXPECT_EQ(hash_name("same"), hash_name("same"));
}

}  // namespace
}  // namespace fbdcsim::core
