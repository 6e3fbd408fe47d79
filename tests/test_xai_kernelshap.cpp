#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "ml/gbdt.hpp"
#include "util/rng.hpp"
#include "xai/treeshap.hpp"

#include "kernelshap.hpp"

namespace {

using namespace polaris;

TEST(KernelShap, LinearModelRecoversCoefficients) {
  // f(x) = 2*x0 - 3*x1 + 1. With a zero-mean background, phi_i should be
  // beta_i * (x_i - mean_i) exactly (linear models have exact Shapley).
  const auto f = [](std::span<const double> x) {
    return 2.0 * x[0] - 3.0 * x[1] + 1.0;
  };
  std::vector<std::vector<double>> background;
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 64; ++i) {
    background.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
  }
  double mean0 = 0.0, mean1 = 0.0;
  for (const auto& row : background) {
    mean0 += row[0];
    mean1 += row[1];
  }
  mean0 /= 64.0;
  mean1 /= 64.0;

  const std::vector<double> x{0.7, -0.4};
  const auto result = xai::kernel_shap(f, x, background, {.samples = 1000});
  EXPECT_NEAR(result.phi[0], 2.0 * (x[0] - mean0), 0.05);
  EXPECT_NEAR(result.phi[1], -3.0 * (x[1] - mean1), 0.05);
}

TEST(KernelShap, EfficiencyHoldsByConstruction) {
  const auto f = [](std::span<const double> x) {
    return x[0] * x[1] + 0.5 * x[2];
  };
  std::vector<std::vector<double>> background;
  util::Xoshiro256 rng(9);
  for (int i = 0; i < 32; ++i) {
    background.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  const std::vector<double> x{0.9, 0.8, 0.1};
  const auto result = xai::kernel_shap(f, x, background, {.samples = 500});
  const double sum = std::accumulate(result.phi.begin(), result.phi.end(), 0.0);
  EXPECT_NEAR(sum, result.fx - result.expected_value, 1e-9);
}

TEST(KernelShap, AgreesWithTreeShapOnSmallModel) {
  // The two SHAP estimators must agree when the background equals the
  // training data (same value function, cover-vs-empirical caveat aside:
  // we use a balanced dataset so covers track the empirical distribution).
  util::Xoshiro256 rng(17);
  ml::Dataset data;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.chance(0.5) ? 1.0 : 0.0;
    const double b = rng.chance(0.5) ? 1.0 : 0.0;
    const double c = rng.chance(0.5) ? 1.0 : 0.0;
    const int label = (a == 1.0 && b == 1.0) ? 1 : 0;
    data.add({a, b, c}, label);
  }
  ml::Gbdt model({.rounds = 15, .max_depth = 2, .learning_rate = 0.3});
  model.fit(data);

  const auto f = [&](std::span<const double> x) {
    return model.predict_margin(x);
  };
  const std::vector<double> x{1.0, 1.0, 0.0};
  const auto exact = xai::tree_shap(model.ensemble(), x);
  const auto sampled =
      xai::kernel_shap(f, x, data.rows(), {.samples = 3000, .seed = 5});
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(sampled.phi[i], exact[i], 0.12) << "feature " << i;
  }
}

TEST(KernelShap, InputValidation) {
  const auto f = [](std::span<const double>) { return 0.0; };
  const std::vector<double> one{1.0};
  const std::vector<std::vector<double>> empty_bg;
  const std::vector<std::vector<double>> bg{{0.0, 0.0}};
  EXPECT_THROW((void)xai::kernel_shap(f, one, bg), std::invalid_argument);
  const std::vector<double> x{1.0, 2.0};
  EXPECT_THROW((void)xai::kernel_shap(f, x, empty_bg), std::invalid_argument);
}

TEST(KernelShap, DeterministicForSeed) {
  const auto f = [](std::span<const double> x) { return x[0] + x[1] * x[2]; };
  std::vector<std::vector<double>> background{{0, 0, 0}, {1, 1, 1}, {0, 1, 0}};
  const std::vector<double> x{1.0, 0.5, 0.25};
  const auto a = xai::kernel_shap(f, x, background, {.samples = 200, .seed = 8});
  const auto b = xai::kernel_shap(f, x, background, {.samples = 200, .seed = 8});
  EXPECT_EQ(a.phi, b.phi);
}

}  // namespace
