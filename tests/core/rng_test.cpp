#include "fbdcsim/core/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

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

// ---- uniform / exponential / bernoulli against the std:: distributions ----

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A URBG that returns one fixed 64-bit value: feeds chosen bit patterns
/// to std::generate_canonical.
struct FixedUrbg {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return value; }
  result_type value;
};

double std_canonical(std::uint64_t x) {
  FixedUrbg g{x};
  return std::generate_canonical<double, 53>(g);
}

TEST(RngUniformConformance, CanonicalMatchesStdOnBoundaryValues) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  std::vector<std::uint64_t> xs = {0, 1, 2, 3, (1ULL << 32) - 1, 1ULL << 32, (1ULL << 32) + 1,
                                   kTop, kTop - 1, kTop - 1023, kTop - 1024, kTop - 1025,
                                   kTop - 2047, kTop - 2048, kTop - 2049};
  // Around every power of two from 2^52 up, where double(x) starts to
  // round: the power itself, +-1, and the round-to-even ties at each ulp.
  for (int e = 52; e < 64; ++e) {
    const std::uint64_t p = 1ULL << e;
    const std::uint64_t half_ulp = e > 53 ? 1ULL << (e - 54) : 0;
    for (const std::uint64_t base : {p, p + (p >> 1), p + (p >> 3) * 5}) {
      for (const std::uint64_t d : {std::uint64_t{0}, std::uint64_t{1}, half_ulp, 3 * half_ulp,
                                    5 * half_ulp, half_ulp - 1, half_ulp + 1}) {
        xs.push_back(base + d);
        xs.push_back(base - d);
      }
    }
  }
  // Random patterns whose low bits sit on or next to a tie.
  std::mt19937_64 pick{17};
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t x = pick() | (1ULL << 63);
    const int drop = 11 - static_cast<int>(i % 3);  // tie bit at 10, 9 or 8
    const std::uint64_t tie = (x & ~((1ULL << drop) - 1)) | (1ULL << (drop - 1));
    xs.insert(xs.end(), {x, x >> (i % 11), tie, tie + 1, tie - 1, tie >> (i % 11)});
  }
  for (const std::uint64_t x : xs) {
    const double got = RngStream::canonical(x);
    ASSERT_EQ(bits(got), bits(std_canonical(x))) << "x = " << x;
    ASSERT_LT(got, 1.0) << "x = " << x;
  }
}

void expect_uniforms_match_std(std::uint64_t seed, int draws) {
  RngStream got{seed};
  RngStream want{seed};
  std::mt19937_64& e = want.engine();
  RngStream pick{seed ^ 0xABCDEF};
  for (int i = 0; i < draws; ++i) {
    ASSERT_EQ(bits(got.uniform()), bits(std::uniform_real_distribution<double>{0.0, 1.0}(e)))
        << "seed " << seed << " draw " << i;
    const double lo = pick.uniform(-1e6, 1e6);
    const double hi = lo + std::ldexp(pick.uniform(), static_cast<int>(i % 60) - 20);
    ASSERT_EQ(bits(got.uniform(lo, hi)),
              bits(std::uniform_real_distribution<double>{lo, hi}(e)))
        << "seed " << seed << " draw " << i << " [" << lo << ", " << hi << ")";
    const double mean = std::ldexp(0.5 + pick.uniform(), static_cast<int>(i % 41) - 20);
    ASSERT_EQ(bits(got.exponential(mean)),
              bits(std::exponential_distribution<double>{1.0 / mean}(e)))
        << "seed " << seed << " draw " << i << " mean " << mean;
    const double p = i % 7 == 0 ? static_cast<double>(i % 2) : pick.uniform();
    ASSERT_EQ(got.bernoulli(p), std::bernoulli_distribution{p}(e))
        << "seed " << seed << " draw " << i << " p " << p;
  }
  // Same engine state: the same number of draws consumed.
  EXPECT_TRUE(got.engine() == want.engine()) << "seed " << seed;
}

TEST(RngUniformConformance, SamplersMatchStdDistributionsOnTheSameEngine) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) expect_uniforms_match_std(seed, 5'000);
  for (const std::uint64_t seed : {splitmix64(1), splitmix64(2015), ~std::uint64_t{0}}) {
    expect_uniforms_match_std(seed, 50'000);
  }
}

TEST(RngUniformConformance, ExponentialMatchesStdAcrossMeans) {
  for (const double mean : {1e-9, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e9}) {
    RngStream got{7};
    RngStream want{7};
    std::exponential_distribution<double> dist{1.0 / mean};
    for (int i = 0; i < 20'000; ++i) {
      ASSERT_EQ(bits(got.exponential(mean)), bits(dist(want.engine())))
          << "mean " << mean << " draw " << i;
    }
    EXPECT_TRUE(got.engine() == want.engine()) << "mean " << mean;
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
