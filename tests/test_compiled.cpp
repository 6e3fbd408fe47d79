// Property harness for the compiled simulation kernel (sim/compiled.hpp):
// randomized netlists evaluated by the compiled kernel vs the reference
// gate-by-gate oracle (sim/reference.hpp), asserting bit-identical value
// words, toggle words, and per-lane energies; the single-group readout is
// checked against lane-by-lane counts of the simulator's toggle words; TVLA
// campaigns over the kernel are checked bit-identical across 1/2/8 threads
// and against the pre-compiled-plan overload. tests/test_golden.cpp remains the
// end-to-end determinism lock (committed CSVs, byte-stable).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "circuits/random_logic.hpp"
#include "circuits/suite.hpp"
#include "masking/masking.hpp"
#include "netlist/netlist.hpp"
#include "power/power_model.hpp"
#include "power/sample_plan.hpp"
#include "sim/compiled.hpp"
#include "sim/reference.hpp"
#include "sim/simd.hpp"
#include "sim/simulator.hpp"
#include "tvla/moments.hpp"
#include "tvla/tvla.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris;
using netlist::CellType;
using netlist::GateId;
using netlist::NetId;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

/// Reference per-lane total power: ascending-gate sweep over the oracle's
/// toggles, mirroring the pre-kernel PowerModel::total_power loop.
std::vector<double> reference_total_power(const netlist::Netlist& design,
                                          const power::PowerModel& power,
                                          const sim::ReferenceSimulator& sim) {
  std::vector<double> lanes(sim::kLanes, 0.0);
  for (GateId g = 0; g < design.gate_count(); ++g) {
    const std::uint64_t toggles = sim.toggles(g);
    if (toggles == 0) continue;
    const double energy = power.gate_energy(g);
    std::uint64_t bits = toggles;
    while (bits != 0) {
      lanes[static_cast<std::size_t>(__builtin_ctzll(bits))] += energy;
      bits &= bits - 1;
    }
  }
  return lanes;
}

/// Drives both simulators with identical stimulus for `cycles` evals and
/// asserts bit-identical values (every net), toggles (every gate), and
/// per-lane energies after each eval. Both consume their internal RNGs in
/// the same order, so seeding them identically keeps kRand streams equal.
void expect_lockstep(const netlist::Netlist& design, std::uint64_t seed,
                     std::size_t cycles, bool latch) {
  const auto compiled = sim::compile(design);
  sim::Simulator fast(compiled, seed);
  sim::ReferenceSimulator oracle(design, seed);
  const power::PowerModel power(design, lib());
  util::Xoshiro256 stimulus(seed ^ 0x57151u);

  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < design.primary_inputs().size(); ++i) {
      const std::uint64_t word = stimulus();
      fast.set_input(i, word);
      oracle.set_input(i, word);
    }
    fast.eval();
    oracle.eval();

    for (NetId n = 0; n < design.net_count(); ++n) {
      ASSERT_EQ(fast.value(n), oracle.value(n))
          << "net " << n << " cycle " << c;
    }
    for (GateId g = 0; g < design.gate_count(); ++g) {
      ASSERT_EQ(fast.toggles(g), oracle.toggles(g))
          << "gate " << g << " cycle " << c;
    }
    std::vector<double> fast_lanes;
    power.total_power(fast, fast_lanes);
    const auto oracle_lanes = reference_total_power(design, power, oracle);
    for (std::size_t lane = 0; lane < sim::kLanes; ++lane) {
      ASSERT_EQ(fast_lanes[lane], oracle_lanes[lane])
          << "lane " << lane << " cycle " << c;  // bitwise double equality
    }
    if (latch) {
      fast.latch();
      oracle.latch();
    }
  }
}

/// Blocked lockstep: one K-word Simulator vs K independent single-word
/// oracles. Oracle w is seeded Simulator::word_seed(seed, w) - the same
/// stream the blocked simulator assigns to lane word w - and receives the
/// same per-word stimulus, so every lane word must match its oracle's
/// values and toggles bit-for-bit, for every block width.
void expect_blocked_lockstep(const netlist::Netlist& design,
                             std::uint64_t seed, std::size_t lane_words,
                             std::size_t cycles, bool latch) {
  const auto compiled = sim::compile(design);
  sim::Simulator fast(compiled, seed, lane_words);
  ASSERT_EQ(fast.lane_words(), lane_words);
  std::vector<std::unique_ptr<sim::ReferenceSimulator>> oracles;
  for (std::size_t w = 0; w < lane_words; ++w) {
    oracles.push_back(std::make_unique<sim::ReferenceSimulator>(
        design, sim::Simulator::word_seed(seed, w)));
  }
  util::Xoshiro256 stimulus(seed ^ 0xb10cull);

  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < design.primary_inputs().size(); ++i) {
      for (std::size_t w = 0; w < lane_words; ++w) {
        const std::uint64_t word = stimulus();
        fast.set_input_word(i, w, word);
        oracles[w]->set_input(i, word);
      }
    }
    fast.eval();
    for (auto& oracle : oracles) oracle->eval();

    for (std::size_t w = 0; w < lane_words; ++w) {
      for (NetId n = 0; n < design.net_count(); ++n) {
        ASSERT_EQ(fast.value_word(n, w), oracles[w]->value(n))
            << "net " << n << " word " << w << " cycle " << c;
      }
      for (GateId g = 0; g < design.gate_count(); ++g) {
        ASSERT_EQ(fast.toggles_word(g, w), oracles[w]->toggles(g))
            << "gate " << g << " word " << w << " cycle " << c;
      }
    }
    if (latch) {
      fast.latch();
      for (auto& oracle : oracles) oracle->latch();
    }
  }
}

TEST(CompiledKernel, RandomLogicMatchesOracle) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    circuits::RandomLogicConfig config;
    config.inputs = 24;
    config.gates = 300;
    config.outputs = 12;
    config.seed = seed;
    const auto design = circuits::make_random_logic(config);
    expect_lockstep(design, /*seed=*/seed * 1337 + 1, /*cycles=*/16,
                    /*latch=*/false);
  }
}

TEST(CompiledKernel, MaskedRandomLogicMatchesOracle) {
  // Masking adds kRand sources and multi-member groups: exercises the RNG
  // stream order contract and the multi bucket of the sampling plan.
  circuits::RandomLogicConfig config;
  config.inputs = 16;
  config.gates = 200;
  config.seed = 5;
  const auto original = circuits::make_random_logic(config);
  std::vector<GateId> targets;
  for (GateId g = 0; g < original.gate_count(); ++g) {
    if (netlist::is_maskable(original.gate(g).type) && g % 3 == 0) {
      targets.push_back(g);
    }
  }
  const auto masked = masking::apply_masking(original, targets);
  ASSERT_GT(masked.added_rand_bits, 0u);
  expect_lockstep(masked.design, /*seed=*/77, /*cycles=*/16, /*latch=*/false);
}

TEST(CompiledKernel, SequentialDesignMatchesOracle) {
  // DFF state, latch(), and the q-slot write path over many cycles.
  const auto design = circuits::get_design("memctrl", 0.3);
  expect_lockstep(design.netlist, /*seed=*/11, /*cycles=*/24, /*latch=*/true);
}

TEST(CompiledKernel, EvalSingleMatchesOracle) {
  circuits::RandomLogicConfig config;
  config.inputs = 12;
  config.gates = 120;
  config.seed = 29;
  const auto design = circuits::make_random_logic(config);
  const auto compiled = sim::compile(design);
  sim::Simulator fast(compiled, 1);
  sim::ReferenceSimulator oracle(design, 1);
  util::Xoshiro256 rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> bits(design.primary_inputs().size());
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = (rng() & 1) != 0;
    EXPECT_EQ(fast.eval_single(bits), oracle.eval_single(bits));
  }
}

TEST(CompiledKernel, ResetAndReseedMatchOracle) {
  const auto design = circuits::get_design("memctrl", 0.25);
  const auto compiled = sim::compile(design.netlist);
  sim::Simulator fast(compiled, 9);
  sim::ReferenceSimulator oracle(design.netlist, 9);
  for (int round = 0; round < 3; ++round) {
    fast.reset(100 + round);
    oracle.reset(100 + round);
    for (int c = 0; c < 6; ++c) {
      fast.set_inputs_random();
      oracle.set_inputs_random();
      fast.eval();
      oracle.eval();
      for (NetId n = 0; n < design.netlist.net_count(); ++n) {
        ASSERT_EQ(fast.value(n), oracle.value(n));
      }
      fast.latch();
      oracle.latch();
    }
  }
}

TEST(CompiledKernel, PrimaryInputTogglesReadZeroAfterEval) {
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  nl.mark_output(nl.add_cell(CellType::kNot, {a}));
  sim::Simulator sim(nl);
  sim.set_input(0, 0);
  sim.eval();
  sim.set_input(0, ~0ULL);
  sim.eval();
  EXPECT_EQ(sim.toggles(nl.net(a).driver), 0u);  // staged writes: toggle 0
}

TEST(CompiledKernel, CompileValidatesOnce) {
  circuits::RandomLogicConfig config;
  config.gates = 150;
  config.seed = 2;
  const auto design = circuits::make_random_logic(config);
  const auto compiled = sim::compile(design);
  EXPECT_EQ(compiled->slot_count(), design.net_count());
  EXPECT_GE(compiled->level_count(), 1u);
  // Batching is a compression: never more runs than combinational gates.
  EXPECT_LE(compiled->run_count(), design.combinational_gate_count());
  // Every net owns a distinct slot (dense renumbering is a bijection).
  std::vector<bool> seen(design.net_count(), false);
  for (NetId n = 0; n < design.net_count(); ++n) {
    const std::uint32_t slot = compiled->slot(n);
    ASSERT_LT(slot, design.net_count());
    ASSERT_FALSE(seen[slot]);
    seen[slot] = true;
  }
}

TEST(CompiledKernel, SamplePlanPreservesAscendingOrderWithinGroups) {
  circuits::RandomLogicConfig config;
  config.gates = 180;
  config.seed = 13;
  const auto original = circuits::make_random_logic(config);
  std::vector<GateId> targets;
  for (GateId g = 0; g < original.gate_count(); ++g) {
    if (netlist::is_maskable(original.gate(g).type)) targets.push_back(g);
  }
  const auto masked = masking::apply_masking(original, targets);
  const auto compiled = sim::compile(masked.design);
  const power::PowerModel power(masked.design, lib());
  const power::SamplePlan plan(*compiled, power);
  ASSERT_GT(plan.multi_group_count(), 0u);

  // Reconstruct the gate order the plan's multis were emitted in: it must
  // be ascending GateId (the accumulation-order contract, DESIGN.md).
  std::size_t cursor = 0;
  GateId previous_gate = 0;
  for (const GateId g : power.active_gates()) {
    const GateId group = masked.design.gate(g).group;
    if (plan.group_multi_index(group) == power::SamplePlan::kNotMulti) continue;
    ASSERT_LT(cursor, plan.multis().size());
    EXPECT_EQ(plan.multis()[cursor].toggle_slot, compiled->toggle_slot(g));
    if (cursor > 0) {
      EXPECT_GT(g, previous_gate);
    }
    previous_gate = g;
    ++cursor;
  }
  EXPECT_EQ(cursor, plan.multis().size());
}

/// Independent oracle for the single-group readout: drives one K-word
/// block, samples the first `active_words` words into CampaignMoments and
/// checks every count against lane-by-lane counts read straight from
/// Simulator::toggles_word. With `sparse`, the second eval changes only
/// the first primary input, so most single toggle words are all zero.
/// Returns the number of all-zero single toggle words seen.
std::size_t expect_single_counts_match_oracle(const netlist::Netlist& design,
                                              std::size_t lane_words,
                                              std::size_t active_words,
                                              bool sparse,
                                              std::uint64_t seed) {
  const auto compiled = sim::compile(design);
  const power::PowerModel power(design, lib());
  const power::SamplePlan plan(*compiled, power);
  sim::Simulator sim(compiled, seed, lane_words);
  util::Xoshiro256 rng(seed);
  const std::size_t inputs = design.primary_inputs().size();
  for (std::size_t i = 0; i < inputs; ++i) {
    for (std::size_t w = 0; w < lane_words; ++w) {
      sim.set_input_word(i, w, rng());
    }
  }
  sim.eval();
  for (std::size_t i = 0; i < (sparse ? 1 : inputs); ++i) {
    for (std::size_t w = 0; w < lane_words; ++w) {
      sim.set_input_word(i, w, rng());
    }
  }
  sim.eval();

  std::vector<std::uint64_t> masks(active_words);
  for (auto& mask : masks) mask = rng();
  std::vector<double> sums(plan.multi_group_count() * lane_words * sim::kLanes,
                           0.0);
  tvla::CampaignMoments moments(plan.group_count(), plan.multi_group_count());
  plan.sample(sim.toggle_words(), lane_words, active_words, masks.data(),
              sums.data(), moments);

  std::uint64_t n_fixed = 0;
  std::uint64_t n_random = 0;
  for (std::size_t w = 0; w < active_words; ++w) {
    for (std::size_t lane = 0; lane < sim::kLanes; ++lane) {
      if ((masks[w] >> lane) & 1ULL) {
        ++n_fixed;
      } else {
        ++n_random;
      }
    }
  }
  EXPECT_EQ(moments.n_fixed(), n_fixed);
  EXPECT_EQ(moments.n_random(), n_random);

  // A single group is one whose only active member is `lone[group]`.
  std::vector<std::size_t> members(plan.group_count(), 0);
  std::vector<GateId> lone(plan.group_count(), 0);
  for (const GateId g : power.active_gates()) {
    ++members[design.gate(g).group];
    lone[design.gate(g).group] = g;
  }
  std::size_t singles = 0;
  std::size_t zero_words = 0;
  for (GateId group = 0; group < plan.group_count(); ++group) {
    std::uint64_t fixed_ones = 0;
    std::uint64_t random_ones = 0;
    if (members[group] == 1) {
      ++singles;
      for (std::size_t w = 0; w < active_words; ++w) {
        const std::uint64_t toggles = sim.toggles_word(lone[group], w);
        if (toggles == 0) ++zero_words;
        for (std::size_t lane = 0; lane < sim::kLanes; ++lane) {
          if (((toggles >> lane) & 1ULL) == 0) continue;
          if ((masks[w] >> lane) & 1ULL) {
            ++fixed_ones;
          } else {
            ++random_ones;
          }
        }
      }
    }
    EXPECT_EQ(moments.single_ones_fixed(group), fixed_ones)
        << "group " << group << " K=" << lane_words
        << " active=" << active_words;
    EXPECT_EQ(moments.single_ones_random(group), random_ones)
        << "group " << group << " K=" << lane_words
        << " active=" << active_words;
  }
  EXPECT_EQ(plan.singles().size(), singles);
  for (std::size_t i = 1; i < plan.singles().size(); ++i) {
    EXPECT_LT(plan.singles()[i - 1].toggle_slot, plan.singles()[i].toggle_slot);
  }
  for (const double sum : sums) EXPECT_EQ(sum, 0.0);
  return zero_words;
}

TEST(CompiledKernel, SingleGroupCountsMatchOracle) {
  const auto design = circuits::get_design("square", 0.3);
  for (const std::size_t lane_words : {1u, 2u, 4u, 8u}) {
    expect_single_counts_match_oracle(design.netlist, lane_words, lane_words,
                                      /*sparse=*/false, 31 + lane_words);
    // Tail block: only the leading words carry sampled batches.
    if (lane_words > 1) {
      expect_single_counts_match_oracle(design.netlist, lane_words,
                                        lane_words - 1, /*sparse=*/false,
                                        7 * lane_words);
    }
  }
}

TEST(CompiledKernel, SingleGroupCountsMatchOracleWithZeroToggleWords) {
  const auto design = circuits::get_design("multiplier", 0.3);
  for (const std::size_t lane_words : {1u, 4u}) {
    const std::size_t zero_words = expect_single_counts_match_oracle(
        design.netlist, lane_words, lane_words, /*sparse=*/true, 53);
    EXPECT_GT(zero_words, 0u) << "K=" << lane_words;
  }
}

TEST(CompiledKernel, SingleGroupCountsMatchOracleBesideMultis) {
  circuits::RandomLogicConfig config;
  config.gates = 180;
  config.seed = 19;
  const auto original = circuits::make_random_logic(config);
  std::vector<GateId> targets;
  for (GateId g = 0; g < original.gate_count(); ++g) {
    if (netlist::is_maskable(original.gate(g).type) && g % 2 == 0) {
      targets.push_back(g);
    }
  }
  const auto masked = masking::apply_masking(original, targets);
  {
    const auto compiled = sim::compile(masked.design);
    const power::PowerModel power(masked.design, lib());
    const power::SamplePlan plan(*compiled, power);
    ASSERT_GT(plan.multi_group_count(), 0u);
    ASSERT_FALSE(plan.singles().empty());
  }
  for (const std::size_t lane_words : {1u, 4u}) {
    expect_single_counts_match_oracle(masked.design, lane_words, lane_words,
                                      /*sparse=*/false, 61);
    expect_single_counts_match_oracle(masked.design, lane_words, 1,
                                      /*sparse=*/false, 67);
  }
}

TEST(CompiledKernel, CampaignBitIdenticalAcrossThreads) {
  const auto design = circuits::get_design("square", 0.3);
  tvla::TvlaConfig config;
  config.traces = 2048;
  config.seed = 77;
  config.noise_std_fj = 1.0;

  config.threads = 1;
  const auto t1 = tvla::run_fixed_vs_random(design.netlist, lib(), config);
  for (const std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    const auto tn = tvla::run_fixed_vs_random(design.netlist, lib(), config);
    ASSERT_EQ(t1.t_values().size(), tn.t_values().size());
    for (std::size_t g = 0; g < t1.t_values().size(); ++g) {
      ASSERT_EQ(t1.t_values()[g], tn.t_values()[g]) << "threads=" << threads;
    }
  }

  // The pre-compiled-plan overload shares one CompiledDesign across
  // campaigns and still reproduces the same report bit-for-bit.
  const auto compiled = sim::compile(design.netlist);
  config.threads = 2;
  const auto shared_plan = tvla::run_fixed_vs_random(compiled, lib(), config);
  for (std::size_t g = 0; g < t1.t_values().size(); ++g) {
    ASSERT_EQ(t1.t_values()[g], shared_plan.t_values()[g]);
  }
}

TEST(CompiledKernel, SequentialCampaignBitIdenticalAcrossThreads) {
  const auto design = circuits::get_design("memctrl", 0.3);
  tvla::TvlaConfig config;
  config.traces = 2048;
  config.cycles_per_batch = 8;
  config.seed = 31;
  config.noise_std_fj = 1.0;

  config.threads = 1;
  const auto t1 = tvla::run_fixed_vs_random(design.netlist, lib(), config);
  for (const std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    const auto tn = tvla::run_fixed_vs_random(design.netlist, lib(), config);
    for (std::size_t g = 0; g < t1.t_values().size(); ++g) {
      ASSERT_EQ(t1.t_values()[g], tn.t_values()[g]) << "threads=" << threads;
    }
  }
}

TEST(CompiledKernel, BlockedLockstepRandomLogic) {
  circuits::RandomLogicConfig config;
  config.inputs = 20;
  config.gates = 250;
  config.outputs = 10;
  config.seed = 41;
  const auto design = circuits::make_random_logic(config);
  for (const std::size_t lane_words : {1u, 2u, 4u, 8u}) {
    expect_blocked_lockstep(design, /*seed=*/901 + lane_words, lane_words,
                            /*cycles=*/8, /*latch=*/false);
  }
}

TEST(CompiledKernel, BlockedLockstepMaskedDesign) {
  // kRand refresh draws slot-ascending PER WORD STREAM: oracle w must see
  // exactly the blocked simulator's word-w share stream.
  circuits::RandomLogicConfig config;
  config.inputs = 14;
  config.gates = 160;
  config.seed = 8;
  const auto original = circuits::make_random_logic(config);
  std::vector<GateId> targets;
  for (GateId g = 0; g < original.gate_count(); ++g) {
    if (netlist::is_maskable(original.gate(g).type) && g % 2 == 0) {
      targets.push_back(g);
    }
  }
  const auto masked = masking::apply_masking(original, targets);
  ASSERT_GT(masked.added_rand_bits, 0u);
  for (const std::size_t lane_words : {2u, 4u, 8u}) {
    expect_blocked_lockstep(masked.design, /*seed=*/55, lane_words,
                            /*cycles=*/8, /*latch=*/false);
  }
}

TEST(CompiledKernel, BlockedLockstepSequentialDesign) {
  // The Simulator supports K > 1 on sequential designs (blocked DFF state
  // and latch); only TVLA campaigns force lane_words = 1, for sample-order
  // reasons, not correctness ones.
  const auto design = circuits::get_design("memctrl", 0.25);
  for (const std::size_t lane_words : {2u, 4u}) {
    expect_blocked_lockstep(design.netlist, /*seed=*/23, lane_words,
                            /*cycles=*/12, /*latch=*/true);
  }
}

TEST(CompiledKernel, InvalidLaneWordsRejected) {
  circuits::RandomLogicConfig config;
  config.gates = 40;
  config.seed = 3;
  const auto design = circuits::make_random_logic(config);
  const auto compiled = sim::compile(design);
  for (const std::size_t bad : {0u, 3u, 5u, 6u, 7u, 16u}) {
    EXPECT_THROW(sim::Simulator(compiled, 1, bad), std::invalid_argument)
        << "lane_words=" << bad;
  }
  tvla::TvlaConfig tvla_config;
  tvla_config.traces = 128;
  tvla_config.lane_words = 3;
  EXPECT_THROW(tvla::run_fixed_vs_random(design, lib(), tvla_config),
               std::invalid_argument);
}

TEST(CompiledKernel, BufNotFusionPreservesResults) {
  // A buf/not level whose outputs feed exactly the next level fuses into
  // its consumer run (one dispatch fewer); outputs are still materialized
  // and bit-identical - checked against the oracle via lockstep.
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId na = nl.add_cell(CellType::kNot, {a});
  const NetId nb = nl.add_cell(CellType::kNot, {b});
  // Both consumers land in the single next run (same level, same kernel),
  // which is the fold precondition.
  nl.mark_output(nl.add_cell(CellType::kAnd, {na, nb}));
  nl.mark_output(nl.add_cell(CellType::kAnd, {na, b}));
  const auto compiled = sim::compile(nl);
  EXPECT_GT(compiled->fused_run_count(), 0u);
  expect_lockstep(nl, /*seed=*/19, /*cycles=*/8, /*latch=*/false);
  expect_blocked_lockstep(nl, /*seed=*/19, /*lane_words=*/4, /*cycles=*/8,
                          /*latch=*/false);
}

TEST(CompiledKernel, CampaignBitIdenticalAcrossLaneWords) {
  // 1984 traces = 31 batches: not a multiple of any block width > 1, so
  // every width > 1 exercises tail blocks inside shard ranges. lane_words
  // is an execution knob like threads: the report must be bit-identical
  // for every setting (0 = auto).
  const auto design = circuits::get_design("square", 0.3);
  tvla::TvlaConfig config;
  config.traces = 1984;
  config.seed = 77;
  config.noise_std_fj = 1.0;
  config.threads = 2;

  config.lane_words = 1;
  const auto base = tvla::run_fixed_vs_random(design.netlist, lib(), config);
  for (const std::size_t lane_words : {0u, 2u, 4u, 8u}) {
    config.lane_words = lane_words;
    const auto blocked =
        tvla::run_fixed_vs_random(design.netlist, lib(), config);
    ASSERT_EQ(base.t_values().size(), blocked.t_values().size());
    for (std::size_t g = 0; g < base.t_values().size(); ++g) {
      ASSERT_EQ(base.t_values()[g], blocked.t_values()[g])
          << "lane_words=" << lane_words;
    }
  }
}

TEST(CompiledKernel, ForcedPortableMatchesForcedAvx2) {
  if (!(sim::avx2_built() && sim::avx2_supported())) {
    GTEST_SKIP() << "AVX2 unavailable on this build/host";
  }
  circuits::RandomLogicConfig config;
  config.inputs = 18;
  config.gates = 220;
  config.seed = 61;
  const auto design = circuits::make_random_logic(config);
  const auto compiled = sim::compile(design);

  // Run the same stimulus under each forced mode and compare every raw
  // value/toggle word: the instantiations share one kernel template, so
  // equality is by construction - this pins it against regressions.
  const auto run_mode = [&](sim::SimdMode mode, std::size_t lane_words,
                            std::vector<std::uint64_t>& values,
                            std::vector<std::uint64_t>& toggles) {
    sim::set_simd_mode(mode);
    sim::Simulator simulator(compiled, 5, lane_words);
    util::Xoshiro256 stimulus(0xf00du);
    for (std::size_t c = 0; c < 6; ++c) {
      for (std::size_t i = 0; i < design.primary_inputs().size(); ++i) {
        for (std::size_t w = 0; w < lane_words; ++w) {
          simulator.set_input_word(i, w, stimulus());
        }
      }
      simulator.eval();
    }
    for (NetId n = 0; n < design.net_count(); ++n) {
      for (std::size_t w = 0; w < lane_words; ++w) {
        values.push_back(simulator.value_word(n, w));
      }
    }
    for (GateId g = 0; g < design.gate_count(); ++g) {
      for (std::size_t w = 0; w < lane_words; ++w) {
        toggles.push_back(simulator.toggles_word(g, w));
      }
    }
  };

  for (const std::size_t lane_words : {4u, 8u}) {
    std::vector<std::uint64_t> portable_values, portable_toggles;
    std::vector<std::uint64_t> avx2_values, avx2_toggles;
    run_mode(sim::SimdMode::kPortable, lane_words, portable_values,
             portable_toggles);
    run_mode(sim::SimdMode::kAvx2, lane_words, avx2_values, avx2_toggles);
    sim::set_simd_mode(sim::SimdMode::kAuto);
    EXPECT_EQ(portable_values, avx2_values) << "lane_words=" << lane_words;
    EXPECT_EQ(portable_toggles, avx2_toggles) << "lane_words=" << lane_words;
  }
}

TEST(CompiledKernel, ForcedPortableScatterMatchesForcedAvx2) {
  if (!(sim::avx2_built() && sim::avx2_supported())) {
    GTEST_SKIP() << "AVX2 unavailable on this build/host";
  }
  // A fully masked random netlist puts most groups on the multi-member
  // readout, whose lane scatter has a portable and an AVX2 form. The
  // t-values must not depend on which one ran. K=1 runs the AVX2 scatter
  // beside the portable kernel; 1984 traces (31 batches) leave a tail
  // block at K=4.
  circuits::RandomLogicConfig logic;
  logic.inputs = 18;
  logic.gates = 220;
  logic.seed = 61;
  const auto original = circuits::make_random_logic(logic);
  std::vector<GateId> targets;
  for (GateId g = 0; g < original.gate_count(); ++g) {
    if (netlist::is_maskable(original.gate(g).type)) targets.push_back(g);
  }
  const auto masked = masking::apply_masking(original, targets);
  {
    const auto compiled = sim::compile(masked.design);
    const power::PowerModel power(masked.design, lib());
    const power::SamplePlan plan(*compiled, power);
    // More than one push tile, the last one partial.
    ASSERT_GT(plan.multi_group_count(), power::SamplePlan::kPushTile);
  }

  tvla::TvlaConfig config;
  config.traces = 1984;
  config.seed = 91;
  config.noise_std_fj = 1.0;
  config.threads = 2;
  for (const std::size_t lane_words : {1u, 4u}) {
    config.lane_words = lane_words;
    sim::set_simd_mode(sim::SimdMode::kPortable);
    const auto portable =
        tvla::run_fixed_vs_random(masked.design, lib(), config);
    sim::set_simd_mode(sim::SimdMode::kAvx2);
    const auto avx2 = tvla::run_fixed_vs_random(masked.design, lib(), config);
    sim::set_simd_mode(sim::SimdMode::kAuto);
    ASSERT_EQ(portable.t_values().size(), avx2.t_values().size());
    std::size_t nonzero = 0;
    for (std::size_t g = 0; g < portable.t_values().size(); ++g) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(portable.t_values()[g]),
                std::bit_cast<std::uint64_t>(avx2.t_values()[g]))
          << "lane_words=" << lane_words << " group " << g;
      if (portable.t_values()[g] != 0.0) ++nonzero;
    }
    EXPECT_GT(nonzero, 0u);
  }
}

}  // namespace
