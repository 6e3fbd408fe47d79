#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "circuits/aes_sbox.hpp"
#include "circuits/arith.hpp"
#include "circuits/random_logic.hpp"
#include "masking/masking.hpp"
#include "sim/simulator.hpp"
#include "tvla/tvla.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris;
using masking::Scheme;
using netlist::CellType;
using netlist::GateId;
using netlist::NetId;

/// Functional equivalence under fresh masking randomness: the masked design
/// must compute the original function for every input and every mask draw.
void expect_equivalent(const netlist::Netlist& original,
                       const netlist::Netlist& masked, int trials,
                       std::uint64_t seed) {
  sim::Simulator sim_orig(original, 1);
  util::Xoshiro256 rng(seed);
  for (int t = 0; t < trials; ++t) {
    std::vector<bool> in(original.primary_inputs().size());
    for (auto&& bit : in) bit = (rng() & 1) != 0;
    const auto want = sim_orig.eval_single(in);
    // New simulator per trial: different rand-cell seeds = different masks.
    sim::Simulator sim_masked(masked, rng());
    EXPECT_EQ(sim_masked.eval_single(in), want) << "trial " << t;
  }
}

class MaskedGateEquivalence
    : public ::testing::TestWithParam<std::tuple<CellType, Scheme>> {};

TEST_P(MaskedGateEquivalence, ExhaustiveTwoInput) {
  const auto [type, scheme] = GetParam();
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_cell(type, {a, b});
  nl.mark_output(y);
  const GateId target = nl.net(y).driver;
  const auto result = masking::apply_masking(nl, std::array{target}, scheme);
  EXPECT_EQ(result.masked_gates, 1u);
  EXPECT_GT(result.added_rand_bits, 0u);
  result.design.validate();
  // All 4 input combinations, many random mask draws each.
  sim::Simulator sim_orig(nl);
  for (int combo = 0; combo < 4; ++combo) {
    const std::vector<bool> in{(combo & 1) != 0, (combo & 2) != 0};
    const auto want = sim_orig.eval_single(in);
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      sim::Simulator sim_masked(result.design, seed);
      EXPECT_EQ(sim_masked.eval_single(in), want)
          << netlist::to_string(type) << " combo " << combo << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMaskableTypesBothSchemes, MaskedGateEquivalence,
    ::testing::Combine(::testing::Values(CellType::kAnd, CellType::kOr,
                                         CellType::kNand, CellType::kNor,
                                         CellType::kXor, CellType::kXnor),
                       ::testing::Values(Scheme::kTrichina, Scheme::kDom)));

TEST(Masking, NaryGateEquivalence) {
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  nl.mark_output(nl.add_cell(CellType::kAnd, {a, b, c}));
  nl.mark_output(nl.add_cell(CellType::kXnor, {a, b, c}));
  nl.mark_output(nl.add_cell(CellType::kNor, {a, b, c}));
  std::vector<GateId> targets;
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    if (netlist::is_maskable(nl.gate(g).type)) targets.push_back(g);
  }
  const auto result = masking::apply_masking(nl, targets, Scheme::kTrichina);
  EXPECT_EQ(result.masked_gates, 3u);
  expect_equivalent(nl, result.design, 40, 99);
}

TEST(Masking, WholeDesignEquivalenceMultiplier) {
  const auto nl = circuits::make_multiplier(6);
  std::vector<GateId> targets;
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    if (netlist::is_maskable(nl.gate(g).type)) targets.push_back(g);
  }
  const auto result = masking::apply_masking(nl, targets, Scheme::kTrichina);
  expect_equivalent(nl, result.design, 25, 7);
}

TEST(Masking, WholeDesignEquivalenceRandomLogic) {
  circuits::RandomLogicConfig config;
  config.gates = 200;
  config.seed = 21;
  const auto nl = circuits::make_random_logic(config);
  // Mask a random half of the maskable gates.
  std::vector<GateId> targets;
  util::Xoshiro256 rng(4);
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    if (netlist::is_maskable(nl.gate(g).type) && rng.chance(0.5)) {
      targets.push_back(g);
    }
  }
  for (const Scheme scheme : {Scheme::kTrichina, Scheme::kDom}) {
    const auto result = masking::apply_masking(nl, targets, scheme);
    expect_equivalent(nl, result.design, 20, 17);
  }
}

TEST(Masking, GroupsAlignWithOriginalGates) {
  const auto nl = circuits::make_adder(6);
  std::vector<GateId> targets;
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    if (netlist::is_maskable(nl.gate(g).type)) targets.push_back(g);
  }
  ASSERT_FALSE(targets.empty());
  const auto result = masking::apply_masking(nl, targets, Scheme::kTrichina);
  // Every cell in the rewrite refers back to an original gate id.
  for (GateId g = 0; g < result.design.gate_count(); ++g) {
    EXPECT_LT(result.design.gate(g).group, nl.gate_count());
  }
  // Masked composites have > 1 member; unmasked gates exactly 1.
  std::vector<std::size_t> members(nl.gate_count(), 0);
  for (GateId g = 0; g < result.design.gate_count(); ++g) {
    members[result.design.gate(g).group]++;
  }
  for (const GateId target : targets) EXPECT_GT(members[target], 1u);
}

TEST(Masking, SkipsInvalidTargets) {
  const auto nl = circuits::make_adder(4);
  // Find a non-maskable gate (an input cell) and an out-of-range id.
  std::vector<GateId> targets{0 /* input cell */,
                              static_cast<GateId>(nl.gate_count() + 5)};
  // Duplicate maskable target counts once.
  GateId maskable = netlist::kNoGate;
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    if (netlist::is_maskable(nl.gate(g).type)) {
      maskable = g;
      break;
    }
  }
  targets.push_back(maskable);
  targets.push_back(maskable);
  const auto result = masking::apply_masking(nl, targets, Scheme::kTrichina);
  EXPECT_EQ(result.masked_gates, 1u);
  EXPECT_EQ(result.skipped, 3u);
}

TEST(Masking, CompositeCellCountMatchesEmission) {
  // Cells a 2-input Trichina composite expands to: 3 rand + 2 reshare XOR
  // + 4 AND + 4 XOR (+1 final buffer) for AND; OR adds 2 input inverters
  // and 1 output inverter; XOR is 1 reshare (rand + XOR) + value XOR (+1
  // final buffer). Inverting types add one output inverter.
  const std::pair<CellType, std::size_t> expected[] = {
      {CellType::kAnd, 14}, {CellType::kNand, 15}, {CellType::kOr, 17},
      {CellType::kNor, 18}, {CellType::kXor, 4},   {CellType::kXnor, 5}};
  for (const auto& [type, composite_cells] : expected) {
    netlist::Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId y = nl.add_cell(type, {a, b});
    nl.mark_output(y);
    const GateId target = nl.net(y).driver;
    const auto result =
        masking::apply_masking(nl, std::array{target}, Scheme::kTrichina);
    // Emitted = composite cells (+1 for the replaced original) plus the
    // primary-output demask XOR at the masked boundary.
    const std::size_t emitted = result.design.gate_count() - nl.gate_count() + 1;
    EXPECT_EQ(emitted, composite_cells + 1) << netlist::to_string(type);
  }
  // A non-maskable cell expands to nothing: the rewrite skips it.
  netlist::Netlist nl;
  nl.mark_output(nl.add_cell(CellType::kNot, {nl.add_input("a")}));
  const GateId inverter = nl.net(nl.primary_outputs()[0]).driver;
  const auto result =
      masking::apply_masking(nl, std::array{inverter}, Scheme::kTrichina);
  EXPECT_EQ(result.skipped, 1u);
  EXPECT_EQ(result.design.gate_count(), nl.gate_count());
}

TEST(Masking, ReducesPerGateLeakage) {
  // The core security property: masking the leakiest gates of an S-box
  // slashes their group t-statistics.
  const auto nl = circuits::make_aes_sbox_layer(1);
  tvla::TvlaConfig config;
  config.traces = 8192;
  config.noise_std_fj = 1.0;
  const auto lib = techlib::TechLibrary::default_library();
  const auto before = tvla::run(nl, lib, config);
  const auto leaky = before.leaky_groups();
  ASSERT_GT(leaky.size(), 5u);

  std::vector<GateId> targets;
  for (const GateId g : leaky) {
    if (netlist::is_maskable(nl.gate(g).type)) targets.push_back(g);
  }
  const auto result = masking::apply_masking(nl, targets, Scheme::kTrichina);
  const auto after = tvla::run(result.design, lib, config);

  double before_sum = 0.0, after_sum = 0.0;
  for (const GateId g : targets) {
    before_sum += std::fabs(before.t_value(g));
    after_sum += std::fabs(after.t_value(g));
  }
  EXPECT_LT(after_sum, 0.5 * before_sum);
}

}  // namespace
