// The distributions the workload models draw from.
//
// The models explain the paper's heavy-tailed flow sizes by service
// mechanisms, so they need only log-normal sizes, Zipf-like object
// popularity in the cache tier and the diurnal rate curve. All sampling is
// explicit-RNG (no hidden state) per the determinism rules in DESIGN.md §6.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fbdcsim/core/rng.h"
#include "fbdcsim/core/time.h"

namespace fbdcsim::core {

/// Log-normal distribution parameterized by the *linear-space* median and the
/// log-space sigma — far easier to calibrate against reported medians than
/// the raw (mu, sigma) pair.
class LogNormal {
 public:
  LogNormal(double median, double sigma) : mu_{std::log(median)}, sigma_{sigma} {
    if (median <= 0.0 || sigma < 0.0) throw std::invalid_argument{"LogNormal: bad params"};
  }

  [[nodiscard]] double sample(RngStream& rng) const {
    return std::exp(rng.normal(mu_, sigma_));
  }

  [[nodiscard]] double median() const { return std::exp(mu_); }
  [[nodiscard]] double mean() const { return std::exp(mu_ + sigma_ * sigma_ / 2.0); }

 private:
  double mu_;
  double sigma_;
};

/// Zipf distribution over ranks {0, ..., n-1} with exponent s, sampled by
/// inverse CDF over a precomputed table (O(log n) per draw, exact).
class Zipf {
 public:
  Zipf(std::size_t n, double s);

  [[nodiscard]] std::size_t sample(RngStream& rng) const;

  /// Probability mass of rank k.
  [[nodiscard]] double pmf(std::size_t k) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double exponent() const { return s_; }

 private:
  double s_;
  double norm_{0.0};
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k)
};

/// Diurnal rate modulation (Section 4.1): a smooth day/night curve with a
/// configurable peak-to-trough ratio (the paper reports ~2x for Facebook vs.
/// the order-of-magnitude swings reported elsewhere) plus a day-of-week dip.
class DiurnalProfile {
 public:
  struct Params {
    double peak_to_trough{2.0};   // >= 1
    double peak_hour{20.0};       // local hour of peak demand
    double weekend_factor{0.85};  // multiplier applied on days 5 and 6
  };

  explicit DiurnalProfile(Params params);

  /// Multiplicative demand factor at an absolute time-of-run offset.
  /// The mean factor over a full week is ~1, so base rates are calibrated
  /// independently of the modulation.
  [[nodiscard]] double factor_at(Duration since_start) const;

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  Params params_;
  double amplitude_;  // derived from peak_to_trough
};

}  // namespace fbdcsim::core
