#include "tvla/moments.hpp"

namespace polaris::tvla {

void MomentAccumulator::merge(const MomentAccumulator& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;
  const double s2 = s2_ + other.s2_ + delta2 * na * nb / n;

  mean_ += delta * nb / n;
  s2_ = s2;
  n_ = static_cast<std::size_t>(n);
}

void CampaignMoments::merge(const CampaignMoments& other) {
  n_fixed_ += other.n_fixed_;
  n_random_ += other.n_random_;
  for (std::size_t g = 0; g < single_ones_fixed_.size(); ++g) {
    single_ones_fixed_[g] += other.single_ones_fixed_[g];
    single_ones_random_[g] += other.single_ones_random_[g];
  }
  for (std::size_t i = 0; i < multi_.size(); ++i) {
    multi_[i].merge(other.multi_[i]);
  }
}

}  // namespace polaris::tvla
