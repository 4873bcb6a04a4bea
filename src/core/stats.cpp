#include "fbdcsim/core/stats.h"

#include <algorithm>
#include <cmath>

namespace fbdcsim::core {

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel-merge formulas.
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Cdf::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  sort();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return std::lerp(samples_[lo], samples_[hi], frac);
}

double Cdf::fraction_at_or_below(double x) const {
  if (samples_.empty()) return 0.0;
  sort();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(std::distance(samples_.begin(), it)) /
         static_cast<double>(samples_.size());
}

std::vector<Cdf::Point> Cdf::series(std::size_t points) const {
  std::vector<Point> out;
  if (samples_.empty() || points < 2) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1);
    out.push_back(Point{q, quantile(q)});
  }
  return out;
}

}  // namespace fbdcsim::core
