#include "fbdcsim/core/distributions.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace fbdcsim::core {

Zipf::Zipf(std::size_t n, double s) : s_{s} {
  if (n == 0) throw std::invalid_argument{"Zipf: n must be positive"};
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  norm_ = acc;
  for (double& v : cdf_) v /= norm_;
  cdf_.back() = 1.0;  // guard against FP shortfall
}

std::size_t Zipf::sample(RngStream& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(std::distance(cdf_.begin(), it));
}

double Zipf::pmf(std::size_t k) const {
  if (k >= cdf_.size()) return 0.0;
  return 1.0 / std::pow(static_cast<double>(k + 1), s_) / norm_;
}

DiurnalProfile::DiurnalProfile(Params params) : params_{params} {
  if (params_.peak_to_trough < 1.0) throw std::invalid_argument{"DiurnalProfile: peak_to_trough < 1"};
  // factor = 1 + A*cos(phase); peak/trough = (1+A)/(1-A)  =>  A = (r-1)/(r+1).
  amplitude_ = (params_.peak_to_trough - 1.0) / (params_.peak_to_trough + 1.0);
}

double DiurnalProfile::factor_at(Duration since_start) const {
  const double hours = since_start.to_seconds() / 3600.0;
  const double hour_of_day = std::fmod(hours, 24.0);
  const int day = static_cast<int>(hours / 24.0) % 7;
  const double phase = (hour_of_day - params_.peak_hour) / 24.0 * 2.0 * std::numbers::pi;
  double f = 1.0 + amplitude_ * std::cos(phase);
  if (day == 5 || day == 6) f *= params_.weekend_factor;
  return f;
}

}  // namespace fbdcsim::core
