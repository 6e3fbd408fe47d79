#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "tvla/moments.hpp"
#include "util/rng.hpp"

namespace {

using polaris::tvla::MomentAccumulator;

/// Naive reference: two-pass central moments (paper Eq. 2 generalized).
struct NaiveMoments {
  double mean = 0.0;
  double cm2 = 0.0;

  explicit NaiveMoments(const std::vector<double>& xs) {
    for (const double x : xs) mean += x;
    mean /= static_cast<double>(xs.size());
    for (const double x : xs) {
      const double d = x - mean;
      cm2 += d * d;
    }
    cm2 /= static_cast<double>(xs.size());
  }
};

/// Verbatim copy of the order-4 Pebay accumulator the campaign used before
/// it dropped S3/S4. Its mean/S2 updates never read S3/S4, so the order-2
/// accumulator must reproduce its mean and S2 bit for bit - which is what
/// keeps every recorded t-value unchanged.
struct Order4Reference {
  std::size_t n_ = 0;
  double mean_ = 0.0, s2_ = 0.0, s3_ = 0.0, s4_ = 0.0;

  void add(double x) {
    const double n1 = static_cast<double>(n_);
    ++n_;
    const double n = static_cast<double>(n_);
    const double delta = x - mean_;
    const double delta_n = delta / n;
    const double delta_n2 = delta_n * delta_n;
    const double term1 = delta * delta_n * n1;
    mean_ += delta_n;
    s4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * s2_ -
           4.0 * delta_n * s3_;
    s3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * s2_;
    s2_ += term1;
  }

  void merge(const Order4Reference& other) {
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
    const double delta3 = delta2 * delta;
    const double delta4 = delta3 * delta;

    const double s4 = s4_ + other.s4_ +
                      delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
                      6.0 * delta2 * (na * na * other.s2_ + nb * nb * s2_) / (n * n) +
                      4.0 * delta * (na * other.s3_ - nb * s3_) / n;
    const double s3 = s3_ + other.s3_ +
                      delta3 * na * nb * (na - nb) / (n * n) +
                      3.0 * delta * (na * other.s2_ - nb * s2_) / n;
    const double s2 = s2_ + other.s2_ + delta2 * na * nb / n;

    mean_ += delta * nb / n;
    s2_ = s2;
    s3_ = s3;
    s4_ = s4;
    n_ = static_cast<std::size_t>(n);
  }
};

void expect_bits_equal(const MomentAccumulator& acc,
                       const Order4Reference& ref) {
  EXPECT_EQ(acc.count(), ref.n_);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(acc.mean()),
            std::bit_cast<std::uint64_t>(ref.mean_));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(acc.sum2()),
            std::bit_cast<std::uint64_t>(ref.s2_));
}

TEST(Moments, EmptyAndSingle) {
  MomentAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance_sample(), 0.0);
  acc.add(5.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_EQ(acc.variance_sample(), 0.0);
  EXPECT_EQ(acc.variance_population(), 0.0);
}

TEST(Moments, KnownSmallSet) {
  // {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, population variance 4.
  MomentAccumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance_population(), 4.0);
  EXPECT_NEAR(acc.variance_sample(), 32.0 / 7.0, 1e-12);
}

TEST(Moments, OnePassMatchesTwoPassRandomData) {
  // Paper Sec. II-A: the one-pass update (Eq. 3-4) must reproduce the
  // naive two-pass result. Property-tested over random data.
  polaris::util::Xoshiro256 rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> xs(500 + trial * 37);
    for (auto& x : xs) x = rng.uniform(-3.0, 7.0);
    MomentAccumulator acc;
    for (const double x : xs) acc.add(x);
    const NaiveMoments naive(xs);
    EXPECT_NEAR(acc.mean(), naive.mean, 1e-9);
    EXPECT_NEAR(acc.variance_population(), naive.cm2, 1e-9);
  }
}

TEST(Moments, NumericallyStableWithLargeOffset) {
  // Catastrophic cancellation check: data with a huge common offset.
  MomentAccumulator acc;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) acc.add(offset + (i % 10));
  EXPECT_NEAR(acc.mean(), offset + 4.5, 1e-3);
  EXPECT_NEAR(acc.variance_population(), 8.25, 1e-3);
}

TEST(Moments, MergeEqualsSequential) {
  polaris::util::Xoshiro256 rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> xs(400);
    for (auto& x : xs) x = rng.gaussian();
    MomentAccumulator whole;
    for (const double x : xs) whole.add(x);
    MomentAccumulator left, right;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      (i < 150 ? left : right).add(xs[i]);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
    EXPECT_NEAR(left.variance_population(), whole.variance_population(), 1e-9);
  }
}

TEST(Moments, MergeWithEmpty) {
  MomentAccumulator a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);  // no-op
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);  // copy
  EXPECT_DOUBLE_EQ(b.mean(), mean);
  EXPECT_EQ(b.count(), 2u);
}

TEST(Moments, ConstantDataHasZeroHigherMoments) {
  MomentAccumulator acc;
  for (int i = 0; i < 100; ++i) acc.add(2.5);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_NEAR(acc.variance_population(), 0.0, 1e-12);
}

TEST(Moments, Order2MatchesOrder4ReferenceBitForBit) {
  // add(), merge() and restore() against the pre-change recurrence, on
  // random data and on data with a large common offset (where any
  // reassociation of the update would show in the last bits).
  polaris::util::Xoshiro256 rng(4242);
  std::vector<std::vector<double>> series;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> xs(300 + trial * 53);
    for (auto& x : xs) x = rng.uniform(-3.0, 7.0) * (trial + 1);
    series.push_back(std::move(xs));
  }
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> xs(1000);
    for (auto& x : xs) x = 1e9 * (trial + 1) + rng.gaussian();
    series.push_back(std::move(xs));
  }
  for (const auto& xs : series) {
    MomentAccumulator whole;
    Order4Reference whole_ref;
    for (const double x : xs) {
      whole.add(x);
      whole_ref.add(x);
    }
    expect_bits_equal(whole, whole_ref);

    // Uneven shards merged in ascending order, as the campaign merges
    // them; shard 0 starts empty to cover the copy branch.
    const std::size_t cuts[] = {0, 0, xs.size() / 7, xs.size() / 2,
                                xs.size() - 3, xs.size()};
    MomentAccumulator merged;
    Order4Reference merged_ref;
    for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
      MomentAccumulator part;
      Order4Reference part_ref;
      for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i) {
        part.add(xs[i]);
        part_ref.add(xs[i]);
      }
      // Round-trip the shard through its serialized state first.
      const auto restored =
          MomentAccumulator::restore(part.count(), part.mean(), part.sum2());
      expect_bits_equal(restored, part_ref);
      merged.merge(restored);
      merged_ref.merge(part_ref);
      expect_bits_equal(merged, merged_ref);
    }
  }
}

}  // namespace
