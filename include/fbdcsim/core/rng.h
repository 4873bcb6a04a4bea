// Deterministic, named random-number streams.
//
// Every stochastic component in the simulator draws from an RngStream derived
// from (root seed, component name). Re-running any experiment with the same
// seed reproduces it bit-for-bit, and adding a new component never perturbs
// the draws of existing ones — a property ordinary shared-engine designs lack.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string_view>

namespace fbdcsim::core {

/// splitmix64: used to whiten seeds and hash stream names.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a hash of a stream name, for deriving per-component seeds.
[[nodiscard]] constexpr std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// A self-contained random stream (mt19937_64) with convenience samplers.
/// Forking derives an independent child stream from this stream's seed and a
/// name/index — the number of values already drawn does not affect forks.
///
/// Every sampler returns exactly what the matching libstdc++ distribution
/// returns on this engine, and consumes the same engine draws. `uniform`,
/// `uniform(lo, hi)`, `exponential`, `bernoulli` and `poisson` below a mean
/// of 12 compute that value inline (one engine draw per canonical double);
/// `uniform_int`, `normal` and larger Poisson means call the std::
/// distribution.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : seed_{seed}, engine_{splitmix64(seed)} {}

  /// Derive a child stream; children with distinct names are independent.
  [[nodiscard]] RngStream fork(std::string_view name) const {
    return RngStream{splitmix64(seed_ ^ hash_name(name))};
  }

  /// Derive a child stream indexed by an integer (e.g. per-host streams).
  [[nodiscard]] RngStream fork(std::string_view name, std::uint64_t index) const {
    return RngStream{splitmix64(splitmix64(seed_ ^ hash_name(name)) + index)};
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

  /// `std::generate_canonical<double, 53>` of one mt19937_64 output, which
  /// libstdc++ computes as double(x) * 2^-64, clamped below 1. Converting a
  /// uint64 to double costs a branch on x86-64 (values >= 2^63 take another
  /// path) that mispredicts half the time on random input. Both 32-bit
  /// halves convert exactly, and hi * 2^32 is exact, so the one rounded add
  /// gives the correctly rounded double(x): the same value, branch-free.
  [[nodiscard]] static double canonical(std::uint64_t x) {
    const double hi = static_cast<double>(static_cast<std::uint32_t>(x >> 32));
    const double lo = static_cast<double>(static_cast<std::uint32_t>(x));
    constexpr double kBelowOne = 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
    return std::min((hi * 0x1p32 + lo) * 0x1p-64, kBelowOne);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() { return canonical(engine_()); }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return uniform() * (hi - lo) + lo; }

  /// Uniform integer in [lo, hi] (inclusive; std::uniform_int_distribution).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }

  /// Exponentially distributed value with the given mean.
  [[nodiscard]] double exponential(double mean) {
    return -std::log(1.0 - uniform()) / (1.0 / mean);
  }

  /// Poisson-distributed count with the given mean. Bit-identical to
  /// libstdc++'s `std::poisson_distribution<std::int64_t>{mean}` on this
  /// stream's engine (same values, same engine draws), but below a mean of
  /// 12 it runs that distribution's multiplicative method inline instead of
  /// constructing the distribution, whose constructor calls exp. A first
  /// draw below 1 - mean returns 0 without calling exp at all, the common
  /// case for the 1:30,000 flow sampler. The shortcut is exact: exp(-mean)
  /// >= 1 - mean, and the 1e-12 margin covers rounding on both sides.
  [[nodiscard]] std::int64_t poisson(double mean) {
    if (mean >= 12) return std::poisson_distribution<std::int64_t>{mean}(engine_);
    double prod = uniform();
    if (prod < (1.0 - mean) - 1e-12) return 0;
    const double threshold = std::exp(-mean);
    std::int64_t count = 0;
    while (prod > threshold) {
      prod *= uniform();
      ++count;
    }
    return count;
  }

  /// Normally distributed value (std::normal_distribution).
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

/// Root of an experiment's randomness: a convenience alias emphasizing that
/// one stream is created per run and everything else is forked from it.
using RngRoot = RngStream;

}  // namespace fbdcsim::core
