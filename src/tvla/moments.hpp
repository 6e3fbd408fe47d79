// One-pass mean and variance computation.
//
// Paper Sec. II-A: "TVLA trace collection is slow due to repeated mean and
// variance calculations. To accelerate it, [Schneider-Moradi 2015] proposed
// an efficient one-pass method for raw and central moments computation
// during trace acquisition", Eq. 3:  M1' = M1 + delta/n, and Eq. 4:
// mu = M1, s^2 = CM2 = M2 - M1^2, extensible to d > 1.
//
// We implement the numerically stable incremental update of the mean and the
// centered power sum S2 = sum (x - mean)^2 (order 2: Pebay's formulas, the
// family the Schneider-Moradi paper derives), plus a pairwise merge() so
// accumulators can be combined across batches. First-order TVLA reads only
// mean and variance; second-order TVLA (parked on the ROADMAP) would bring
// the S3/S4 sums back together with the method that reads them. The naive
// two-pass reference (Eq. 2) lives in welch.hpp for tests and the ablation
// bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace polaris::tvla {

class MomentAccumulator {
 public:
  /// Defined inline: the campaign readout pushes one sample per (lane,
  /// multi group), and independent accumulators overlap their divisions
  /// only when the update is visible at the call site. The float
  /// expressions are the campaign's bit-identity contract - do not reorder.
  void add(double x) noexcept {
    const double n1 = static_cast<double>(n_);
    ++n_;
    const double n = static_cast<double>(n_);
    const double delta = x - mean_;
    const double delta_n = delta / n;
    mean_ += delta_n;
    s2_ += delta * delta_n * n1;
  }

  /// Combine with another accumulator (Chan pairwise update).
  void merge(const MomentAccumulator& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }

  /// Population variance CM2 = S2 / n (paper Eq. 4) and unbiased sample
  /// variance S2 / (n - 1).
  [[nodiscard]] double variance_population() const noexcept {
    return n_ == 0 ? 0.0 : s2_ / static_cast<double>(n_);
  }
  [[nodiscard]] double variance_sample() const noexcept {
    return n_ < 2 ? 0.0 : s2_ / static_cast<double>(n_ - 1);
  }

  /// Raw centered power sum S2 = sum (x-mean)^2 - with count() and mean()
  /// the exact internal state, exposed so shard results can travel across
  /// hosts (tvla/moments_io.hpp) and be restored bit-identically.
  [[nodiscard]] double sum2() const noexcept { return s2_; }

  /// Rebuilds an accumulator from its exact serialized state. merge() on a
  /// restored accumulator runs the same float ops as on the original.
  [[nodiscard]] static MomentAccumulator restore(std::size_t n, double mean,
                                                 double s2) noexcept {
    MomentAccumulator acc;
    acc.n_ = n;
    acc.mean_ = mean;
    acc.s2_ = s2;
    return acc;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double s2_ = 0.0;  // sum (x-mean)^2
};

/// Mergeable per-campaign statistics block - the state a trace shard
/// returns and engine::Scheduler merges in ascending shard order
/// (engine/scheduler.hpp), whichever thread or host ran the shard.
///
/// Two representations coexist, mirroring the campaign fast paths:
///  * single-member gate groups: samples are binary {0, E}, so only toggle
///    counts per class are kept (exact integer merge);
///  * multi-member groups: real-valued group-energy sums per trace, kept as
///    one MomentAccumulator per class (Chan merge), stored interleaved
///    (fixed, random) per group so the readout picks the class by index
///    arithmetic instead of a branch.
/// Class sample counts (fixed/random lane totals) are shared by all groups
/// of a campaign and stored once.
class CampaignMoments {
 public:
  CampaignMoments() = default;
  CampaignMoments(std::size_t group_count, std::size_t multi_group_count)
      : single_ones_fixed_(group_count, 0),
        single_ones_random_(group_count, 0),
        multi_(2 * multi_group_count) {}

  /// Per sample step: how many lanes were in each class.
  void add_lane_counts(std::uint64_t fixed, std::uint64_t random) noexcept {
    n_fixed_ += fixed;
    n_random_ += random;
  }
  /// Single-member group: toggle counts observed in each class.
  void add_single_ones(std::size_t group, std::uint64_t fixed,
                       std::uint64_t random) noexcept {
    single_ones_fixed_[group] += fixed;
    single_ones_random_[group] += random;
  }
  /// Multi-member group: one summed-energy sample in the given class.
  void add_multi_sample(std::size_t multi_index, bool fixed_class,
                        double value) noexcept {
    multi_[2 * multi_index + (fixed_class ? 0 : 1)].add(value);
  }

  /// Combines another shard's statistics. Integer counters merge exactly;
  /// moment accumulators use the pairwise Chan merge, so calling merge() in
  /// a fixed shard order gives bit-reproducible results.
  void merge(const CampaignMoments& other);

  [[nodiscard]] std::uint64_t n_fixed() const noexcept { return n_fixed_; }
  [[nodiscard]] std::uint64_t n_random() const noexcept { return n_random_; }
  [[nodiscard]] std::uint64_t single_ones_fixed(std::size_t group) const noexcept {
    return single_ones_fixed_[group];
  }
  [[nodiscard]] std::uint64_t single_ones_random(std::size_t group) const noexcept {
    return single_ones_random_[group];
  }
  [[nodiscard]] const MomentAccumulator& multi_fixed(std::size_t i) const noexcept {
    return multi_[2 * i];
  }
  [[nodiscard]] const MomentAccumulator& multi_random(std::size_t i) const noexcept {
    return multi_[2 * i + 1];
  }

  [[nodiscard]] std::size_t group_count() const noexcept {
    return single_ones_fixed_.size();
  }
  [[nodiscard]] std::size_t multi_group_count() const noexcept {
    return multi_.size() / 2;
  }

  /// Restores one multi-member group's accumulator pair from serialized
  /// state (tvla/moments_io.hpp). Counts and single-group toggles are
  /// restorable through add_lane_counts/add_single_ones on a fresh object;
  /// only the accumulators need direct placement.
  void set_multi(std::size_t multi_index, MomentAccumulator fixed,
                 MomentAccumulator random) noexcept {
    multi_[2 * multi_index] = fixed;
    multi_[2 * multi_index + 1] = random;
  }

 private:
  std::uint64_t n_fixed_ = 0, n_random_ = 0;
  std::vector<std::uint64_t> single_ones_fixed_, single_ones_random_;
  std::vector<MomentAccumulator> multi_;  // [2m] fixed, [2m + 1] random
};

}  // namespace polaris::tvla
