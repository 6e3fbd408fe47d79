// Tests for the Algorithm-2 coherence-smoothing refinement and cross-scheme
// masking properties (see DESIGN.md section 3).
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/aes_sbox.hpp"
#include "circuits/arith.hpp"
#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "masking/masking.hpp"

namespace {

using namespace polaris;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

core::PolarisConfig fast_config(double smoothing) {
  core::PolarisConfig config;
  config.mask_size = 30;
  config.iterations = 6;
  config.locality = 5;
  config.tvla.traces = 2048;
  config.model_rounds = 60;
  config.coherence_smoothing = smoothing;
  config.seed = 3;
  return config;
}

std::vector<circuits::Design> tiny_training() {
  std::vector<circuits::Design> designs;
  circuits::Design d{"sbox1", circuits::make_aes_sbox_layer(1), {}};
  d.roles.assign(d.netlist.primary_inputs().size(), circuits::InputRole::kData);
  designs.push_back(std::move(d));
  return designs;
}

TEST(Coherence, ZeroSmoothingIsPaperLiteralRanking) {
  // With smoothing off, scores are raw model probabilities: verify by
  // training twice with the only difference being the smoothing knob and
  // checking the scores change (smoothing does something) while the
  // underlying model is identical.
  core::Polaris raw(fast_config(0.0));
  core::Polaris smooth(fast_config(0.5));
  const auto training = tiny_training();
  (void)raw.train(training, lib());
  (void)smooth.train(training, lib());

  circuits::Design target{"sbox", circuits::make_aes_sbox_layer(1), {}};
  target.roles.assign(target.netlist.primary_inputs().size(),
                      circuits::InputRole::kData);
  const auto raw_scores = raw.score_gates(target, core::InferenceMode::kModel);
  const auto smooth_scores =
      smooth.score_gates(target, core::InferenceMode::kModel);
  ASSERT_EQ(raw_scores.size(), smooth_scores.size());
  bool any_difference = false;
  for (std::size_t g = 0; g < raw_scores.size(); ++g) {
    if (std::fabs(raw_scores[g] - smooth_scores[g]) > 1e-12) {
      any_difference = true;
    }
    // Smoothed scores remain valid probabilities.
    EXPECT_GE(smooth_scores[g], 0.0);
    EXPECT_LE(smooth_scores[g], 1.0);
  }
  EXPECT_TRUE(any_difference);
}

TEST(Coherence, SmoothingIsConvexCombination) {
  // A smoothed score never exceeds the max of (own, neighborhood-mean):
  // verify the bound max(smoothed) <= max(raw) over maskable gates.
  core::Polaris raw(fast_config(0.0));
  core::Polaris smooth(fast_config(0.7));
  const auto training = tiny_training();
  (void)raw.train(training, lib());
  (void)smooth.train(training, lib());
  circuits::Design target{"mult", circuits::make_multiplier(6), {}};
  target.roles.assign(target.netlist.primary_inputs().size(),
                      circuits::InputRole::kData);
  const auto raw_scores = raw.score_gates(target, core::InferenceMode::kModel);
  const auto smooth_scores =
      smooth.score_gates(target, core::InferenceMode::kModel);
  double raw_max = 0.0, smooth_max = 0.0;
  for (std::size_t g = 0; g < raw_scores.size(); ++g) {
    raw_max = std::max(raw_max, raw_scores[g]);
    smooth_max = std::max(smooth_max, smooth_scores[g]);
  }
  EXPECT_LE(smooth_max, raw_max + 1e-12);
}

TEST(Coherence, MaskedRegionLeaksOnlyAtBoundary) {
  // Oracle property behind the smoothing prior: masking ALL TVLA-flagged
  // gates collapses every flagged group; whatever remains leaky afterwards
  // was below threshold before (boundary relocation, not failure).
  const auto nl = circuits::make_aes_sbox_layer(1);
  tvla::TvlaConfig config;
  config.traces = 8192;
  config.noise_std_fj = 1.0;
  const auto before = tvla::run(nl, lib(), config);
  const auto leaky = before.leaky_groups();
  ASSERT_FALSE(leaky.empty());
  std::vector<netlist::GateId> maskable;
  for (const auto g : leaky) {
    if (netlist::is_maskable(nl.gate(g).type)) maskable.push_back(g);
  }
  const auto masked = masking::apply_masking(nl, maskable);
  const auto after = tvla::run(masked.design, lib(), config);
  for (const auto g : maskable) {
    EXPECT_LT(std::fabs(after.t_value(g)), config.threshold)
        << "masked group g" << g << " must collapse";
  }
}

class SchemeLeakage : public ::testing::TestWithParam<masking::Scheme> {};

TEST_P(SchemeLeakage, BothSchemesCollapseMaskedGroups) {
  const auto scheme = GetParam();
  const auto nl = circuits::make_multiplier(6);
  tvla::TvlaConfig config;
  config.traces = 8192;
  config.noise_std_fj = 0.5;
  const auto before = tvla::run(nl, lib(), config);
  const auto leaky = before.leaky_groups();
  ASSERT_FALSE(leaky.empty());
  std::vector<netlist::GateId> targets;
  for (const auto g : leaky) {
    if (netlist::is_maskable(nl.gate(g).type)) targets.push_back(g);
  }
  const auto masked = masking::apply_masking(nl, targets, scheme);
  const auto after = tvla::run(masked.design, lib(), config);
  double before_sum = 0.0, after_sum = 0.0;
  for (const auto g : targets) {
    before_sum += std::fabs(before.t_value(g));
    after_sum += std::fabs(after.t_value(g));
  }
  EXPECT_LT(after_sum, 0.25 * before_sum)
      << "scheme " << (scheme == masking::Scheme::kTrichina ? "trichina" : "dom");
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeLeakage,
                         ::testing::Values(masking::Scheme::kTrichina,
                                           masking::Scheme::kDom));

TEST(Coherence, RandBitsScaleWithMaskedCount) {
  const auto nl = circuits::make_multiplier(6);
  std::vector<netlist::GateId> few, many;
  for (netlist::GateId g = 0; g < nl.gate_count(); ++g) {
    if (!netlist::is_maskable(nl.gate(g).type)) continue;
    if (few.size() < 5) few.push_back(g);
    many.push_back(g);
  }
  const auto small = masking::apply_masking(nl, few);
  const auto large = masking::apply_masking(nl, many);
  EXPECT_GT(small.added_rand_bits, 0u);
  EXPECT_GT(large.added_rand_bits, small.added_rand_bits);
  EXPECT_GT(large.added_cells, small.added_cells);
}

}  // namespace
