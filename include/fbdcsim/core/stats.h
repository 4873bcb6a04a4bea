// Streaming and batch statistics used by every analysis.
//
// OnlineStats accumulates moments in one pass (Welford); Cdf holds a sorted
// sample set and answers percentile queries exactly — the paper's figures are
// all CDFs or percentile tables, so exactness beats sketching at our scales.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace fbdcsim::core {

/// One-pass mean/variance/min/max accumulator (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

  void merge(const OnlineStats& other);

 private:
  std::int64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double sum_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// An exact empirical CDF over a collected sample set.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples) : samples_{std::move(samples)}, sorted_{false} {
    sort();
  }

  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  void add_all(std::span<const double> xs) {
    samples_.insert(samples_.end(), xs.begin(), xs.end());
    sorted_ = false;
  }

  /// Absorbs another CDF's samples (the sharded-accumulator merge step:
  /// quantiles of the merged set are independent of merge order).
  void merge(const Cdf& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_ = false;
  }

  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }

  /// Value at quantile q in [0, 1] (nearest-rank with linear interpolation).
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double p10() const { return quantile(0.10); }
  [[nodiscard]] double p90() const { return quantile(0.90); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }

  /// Fraction of samples <= x.
  [[nodiscard]] double fraction_at_or_below(double x) const;

  /// Evenly spaced (quantile, value) series for plotting, `points` long.
  struct Point {
    double quantile;
    double value;
  };
  [[nodiscard]] std::vector<Point> series(std::size_t points = 101) const;

  [[nodiscard]] std::span<const double> sorted_samples() const {
    sort();
    return samples_;
  }

 private:
  void sort() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> samples_;
  mutable bool sorted_{true};
};

}  // namespace fbdcsim::core
