// Kernel SHAP (Lundberg & Lee 2017): model-agnostic Shapley estimation by
// weighted linear regression over sampled coalitions (paper Sec. IV-B names
// Kernel SHAP as the model-agnostic member of the SHAP family).
//
// Test-only oracle: it shares no code with xai/treeshap and cross-validates
// exact TreeSHAP in test_xai_kernelshap. Estimates converge to Eq. 6 as
// samples grow. Header-only, since every test source is its own binary.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace polaris::xai {

struct KernelShapConfig {
  /// Sampled coalitions (excluding the two trivial ones, handled exactly).
  std::size_t samples = 2048;
  /// Ridge regularization for the weighted least squares solve.
  double ridge = 1e-6;
  std::uint64_t seed = 1;
};

struct KernelShapResult {
  std::vector<double> phi;
  double expected_value = 0.0;  // E[f] over the background set
  double fx = 0.0;              // f(x)
};

namespace detail {

/// Solves the symmetric positive-definite system A x = b in place by
/// Gaussian elimination with partial pivoting (dimensions are small: one
/// row/column per feature).
inline std::vector<double> solve(std::vector<std::vector<double>> a,
                          std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::fabs(a[row][col]) > std::fabs(a[pivot][col])) pivot = row;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double diag = a[col][col];
    if (std::fabs(diag) < 1e-30) throw std::runtime_error("kernel_shap: singular");
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row][col] / diag;
      if (factor == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) a[row][k] -= factor * a[col][k];
      b[row] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t row = n; row-- > 0;) {
    double sum = b[row];
    for (std::size_t k = row + 1; k < n; ++k) sum -= a[row][k] * x[k];
    x[row] = sum / a[row][row];
  }
  return x;
}

}  // namespace detail

/// `f` maps a feature row to the model output (margin). `background` rows
/// define the reference distribution for absent features.
[[nodiscard]] inline KernelShapResult kernel_shap(
    const std::function<double(std::span<const double>)>& f,
    std::span<const double> x,
    const std::vector<std::vector<double>>& background,
    const KernelShapConfig& config = {}) {
  const std::size_t m = x.size();
  if (m < 2) throw std::invalid_argument("kernel_shap: need >= 2 features");
  if (background.empty()) {
    throw std::invalid_argument("kernel_shap: empty background set");
  }

  KernelShapResult result;
  result.fx = f(x);
  // E[f]: average over the raw background rows.
  for (const auto& row : background) result.expected_value += f(row);
  result.expected_value /= static_cast<double>(background.size());

  // Expected model output with coalition S present (others from background).
  std::vector<double> hybrid(m);
  const auto coalition_value = [&](const std::vector<bool>& in_coalition) {
    double total = 0.0;
    for (const auto& bg : background) {
      for (std::size_t i = 0; i < m; ++i) {
        hybrid[i] = in_coalition[i] ? x[i] : bg[i];
      }
      total += f(hybrid);
    }
    return total / static_cast<double>(background.size());
  };

  // Shapley kernel over coalition sizes 1..m-1; sizes are sampled
  // proportionally to their aggregate kernel mass, members uniformly.
  std::vector<double> size_mass(m, 0.0);  // index = |S|
  double mass_total = 0.0;
  for (std::size_t k = 1; k < m; ++k) {
    size_mass[k] = (static_cast<double>(m) - 1.0) /
                   (static_cast<double>(k) * static_cast<double>(m - k));
    mass_total += size_mass[k];
  }

  util::Xoshiro256 rng(config.seed);
  // Weighted least squares with the sum constraint eliminated: write
  // phi_{m-1} = (fx - E) - sum_{i<m-1} phi_i, regress residual target on
  // a_i = z_i - z_{m-1}.
  const std::size_t dims = m - 1;
  std::vector<std::vector<double>> ata(dims, std::vector<double>(dims, 0.0));
  std::vector<double> atb(dims, 0.0);

  std::vector<bool> coalition(m);
  std::vector<std::size_t> order(m);
  for (std::size_t s = 0; s < config.samples; ++s) {
    // Draw coalition size by kernel mass.
    double roll = rng.uniform() * mass_total;
    std::size_t k = 1;
    for (; k + 1 < m; ++k) {
      if (roll < size_mass[k]) break;
      roll -= size_mass[k];
    }
    // Random k-subset via partial Fisher-Yates.
    for (std::size_t i = 0; i < m; ++i) order[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + rng.bounded(m - i);
      std::swap(order[i], order[j]);
    }
    std::fill(coalition.begin(), coalition.end(), false);
    for (std::size_t i = 0; i < k; ++i) coalition[order[i]] = true;

    const double y = coalition_value(coalition) - result.expected_value;
    const double zm = coalition[m - 1] ? 1.0 : 0.0;
    const double target = y - zm * (result.fx - result.expected_value);
    // All samples of a given size share the same kernel weight; sampling
    // by mass already accounts for it, so each draw enters with weight 1.
    std::vector<double> a(dims);
    for (std::size_t i = 0; i < dims; ++i) {
      a[i] = (coalition[i] ? 1.0 : 0.0) - zm;
    }
    for (std::size_t i = 0; i < dims; ++i) {
      if (a[i] == 0.0) continue;
      atb[i] += a[i] * target;
      for (std::size_t j = 0; j < dims; ++j) {
        if (a[j] != 0.0) ata[i][j] += a[i] * a[j];
      }
    }
  }
  for (std::size_t i = 0; i < dims; ++i) ata[i][i] += config.ridge;

  const std::vector<double> head = detail::solve(std::move(ata), std::move(atb));
  result.phi.assign(m, 0.0);
  double head_sum = 0.0;
  for (std::size_t i = 0; i < dims; ++i) {
    result.phi[i] = head[i];
    head_sum += head[i];
  }
  result.phi[m - 1] = (result.fx - result.expected_value) - head_sum;
  return result;
}

}  // namespace polaris::xai
