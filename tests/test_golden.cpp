// Golden-value regression tests: fixed-seed TVLA t-statistics and
// score_gates outputs checked against CSVs committed under tests/golden/.
// Their job is to make numeric drift LOUD: an engine/scheduler/model
// refactor that changes any double - even in the last bit - fails here,
// instead of silently shifting every paper table.
//
// Values are written with %.17g (lossless double round-trip). TVLA series
// (pure IEEE arithmetic) are compared bit-exactly; model-score series get
// a 64-ulp budget because their exp/log path varies by libm (see
// check_series). To regenerate after an *intentional* numeric change:
//   POLARIS_UPDATE_GOLDEN=1 ./test_golden
// then commit the rewritten CSVs with the change that explains them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "masking/masking.hpp"
#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"

namespace {

using namespace polaris;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

bool update_mode() {
  const char* env = std::getenv("POLARIS_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

std::string golden_path(const std::string& name) {
  return std::string(POLARIS_GOLDEN_DIR) + "/" + name;
}

/// One (index, value) series. CSV layout: header line, then `<index>,<v17>`
/// rows - no quoting needed, values never contain commas.
void write_series(const std::string& name, const std::string& header,
                  const std::vector<double>& values) {
  std::ofstream out(golden_path(name));
  ASSERT_TRUE(out) << "cannot write " << golden_path(name);
  out << header << "\n";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%zu,%.17g", i, values[i]);
    out << buffer << "\n";
  }
}

std::vector<double> read_series(const std::string& name) {
  std::ifstream in(golden_path(name));
  EXPECT_TRUE(in) << "missing golden file " << golden_path(name)
                  << " (regenerate with POLARIS_UPDATE_GOLDEN=1)";
  std::vector<double> values;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    if (comma == std::string::npos) continue;
    values.push_back(std::strtod(line.c_str() + comma + 1, nullptr));
  }
  return values;
}

/// Monotone mapping of the double line onto integers: adjacent doubles
/// differ by 1, -0.0 and +0.0 by 1, negatives sort below positives.
std::uint64_t float_order(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits & (1ULL << 63)) ? ~bits : bits | (1ULL << 63);
}

std::uint64_t ulp_distance(double a, double b) {
  const std::uint64_t oa = float_order(a), ob = float_order(b);
  return oa > ob ? oa - ob : ob - oa;
}

/// max_ulps = 0: bit-exact (the TVLA series - pure IEEE +,-,*,/,sqrt, so
/// identical on every platform; a +0.0 -> -0.0 flip fails). Nonzero: the
/// model-score series, whose training path runs std::exp/std::log -
/// transcendentals are not correctly rounded, so their last-ulp spread
/// varies across libm implementations and gets amplified by the boosting
/// accumulation. 64 ulps (~1.4e-14 relative) absorbs that while staying
/// orders of magnitude below any real algorithmic drift.
void check_series(const std::string& name, const std::string& header,
                  const std::vector<double>& actual,
                  std::uint64_t max_ulps = 0) {
  if (update_mode()) {
    write_series(name, header, actual);
    return;
  }
  const auto golden = read_series(name);
  ASSERT_EQ(golden.size(), actual.size()) << name << ": series length drifted";
  for (std::size_t i = 0; i < actual.size(); ++i) {
    // %.17g round-trips every double (sign of zero included), so the
    // comparison is over exact bit patterns, not re-parsed approximations.
    EXPECT_LE(ulp_distance(golden[i], actual[i]), max_ulps)
        << name << " index " << i << " drifted (was " << golden[i] << ", now "
        << actual[i] << ")";
  }
}

// --- TVLA t-statistics -------------------------------------------------------

tvla::TvlaConfig tvla_golden_config() {
  tvla::TvlaConfig config;
  config.traces = 1024;
  config.noise_std_fj = 1.0;
  config.seed = 20260728;
  config.threads = 0;  // results are thread-invariant; any value is the same
  return config;
}

TEST(Golden, TvlaSquare) {
  const auto design = circuits::get_design("square", 0.4);
  const auto report = tvla::run_fixed_vs_random(design.netlist, lib(),
                                                tvla_golden_config());
  check_series("tvla_square.csv", "gate,t", report.t_values());
}

TEST(Golden, TvlaMemctrlSequential) {
  // A sequential design: covers the multi-cycle sampling path and the
  // cycles_per_batch batch layout.
  const auto design = circuits::get_design("memctrl", 0.5);
  auto config = tvla_golden_config();
  config.cycles_per_batch = 8;
  const auto report =
      tvla::run_fixed_vs_random(design.netlist, lib(), config);
  check_series("tvla_memctrl.csv", "gate,t", report.t_values());
}

TEST(Golden, TvlaSquareMasked) {
  // Every maskable gate replaced by a composite: the composite cells share
  // their original gate's group, so this pins the multi-member (float
  // moment) readout that the unmasked series above never reach.
  const auto design = circuits::get_design("square", 0.4);
  std::vector<netlist::GateId> targets(design.netlist.gate_count());
  for (netlist::GateId g = 0; g < targets.size(); ++g) targets[g] = g;
  const auto masked = masking::apply_masking(design.netlist, targets);
  ASSERT_GT(masked.masked_gates, 0u);
  const auto report = tvla::run_fixed_vs_random(masked.design, lib(),
                                                tvla_golden_config());
  check_series("tvla_square_masked.csv", "gate,t", report.t_values());
}

// --- score_gates through a fixed-seed trained model --------------------------

/// Small but real: Algorithm 1 on two training designs, AdaBoost fit, rule
/// extraction - every stage that could drift feeds the scores checked here.
const core::Polaris& golden_polaris() {
  static const core::Polaris instance = [] {
    core::PolarisConfig config;
    config.mask_size = 30;
    config.locality = 3;
    config.iterations = 3;
    config.model = core::ModelKind::kAdaBoost;
    config.model_rounds = 25;
    config.tvla.traces = 512;
    config.tvla.noise_std_fj = 1.0;
    config.seed = 9;
    config.tvla.seed = 9;
    core::Polaris polaris(config);
    const auto training = circuits::training_suite();
    (void)polaris.train(std::span(training.data(), 2), lib());
    return polaris;
  }();
  return instance;
}

TEST(Golden, ScoreGatesSquareModel) {
  const auto design = circuits::get_design("square", 0.4);
  check_series("score_square_model.csv", "gate,score",
               golden_polaris().score_gates(design,
                                            core::InferenceMode::kModel),
               /*max_ulps=*/64);
}

TEST(Golden, ScoreGatesVoterModelPlusRules) {
  // The rule-augmented path additionally locks the extracted RuleSet.
  const auto design = circuits::get_design("voter", 0.3);
  check_series("score_voter_rules.csv", "gate,score",
               golden_polaris().score_gates(
                   design, core::InferenceMode::kModelPlusRules),
               /*max_ulps=*/64);
}

}  // namespace
