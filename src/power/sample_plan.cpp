#include "power/sample_plan.hpp"

#include <algorithm>

#include "sim/simd.hpp"

namespace polaris::power {

using netlist::GateId;

namespace {

/// The portable lane scatter (lane_scatter.hpp): walks the set bits.
void lane_scatter_portable(const MultiOp* ops, std::size_t count,
                           const std::uint64_t* toggle_words,
                           std::size_t lane_words, std::size_t active_words,
                           double* lane_sums) {
  constexpr std::size_t kLanesPerWord = 64;
  for (const MultiOp* op = ops; op != ops + count; ++op) {
    const std::uint64_t* block =
        toggle_words + static_cast<std::size_t>(op->toggle_slot) * lane_words;
    double* sums =
        lane_sums + static_cast<std::size_t>(op->multi) * lane_words *
                        kLanesPerWord;
    for (std::size_t w = 0; w < active_words; ++w) {
      std::uint64_t bits = block[w];
      if (bits == 0) continue;
      double* lane_sum = sums + w * kLanesPerWord;
      while (bits != 0) {
        lane_sum[static_cast<std::size_t>(__builtin_ctzll(bits))] +=
            op->energy;
        bits &= bits - 1;
      }
    }
  }
}

}  // namespace

SamplePlan::SamplePlan(const sim::CompiledDesign& compiled,
                       const PowerModel& power) {
  const netlist::Netlist& design = compiled.design();

  GateId max_group = 0;
  for (const auto& gate : design.gates()) {
    max_group = std::max(max_group, gate.group);
  }
  const std::size_t group_count = static_cast<std::size_t>(max_group) + 1;

  std::vector<std::uint32_t> group_size(group_count, 0);
  group_measured_.assign(group_count, false);
  for (const GateId g : power.active_gates()) {
    group_size[design.gate(g).group]++;
    group_measured_[design.gate(g).group] = true;
  }

  // Multi-member groups need real-valued samples; single-member groups use
  // the binary counting fast path.
  group_multi_index_.assign(group_count, kNotMulti);
  for (GateId grp = 0; grp < group_count; ++grp) {
    if (group_size[grp] > 1) {
      group_multi_index_[grp] =
          static_cast<std::uint32_t>(multi_group_ids_.size());
      multi_group_ids_.push_back(grp);
    }
  }

  // active_gates() is ascending by id, so multis_ inherits the
  // ascending-GateId order the accumulation contract requires.
  single_energy_.assign(group_count, 0.0);
  for (const GateId g : power.active_gates()) {
    const GateId grp = design.gate(g).group;
    const std::uint32_t multi = group_multi_index_[grp];
    if (multi == kNotMulti) {
      single_energy_[grp] = power.gate_energy(g);
      singles_.push_back(SingleOp{compiled.toggle_slot(g), grp});
    } else {
      multis_.push_back(
          MultiOp{compiled.toggle_slot(g), multi, power.gate_energy(g)});
    }
  }
  // Single counters are integers, so their order is free: walk the toggle
  // array forward.
  std::sort(singles_.begin(), singles_.end(),
            [](const SingleOp& a, const SingleOp& b) {
              return a.toggle_slot < b.toggle_slot;
            });
}

void SamplePlan::scatter_multis(const std::uint64_t* toggle_words,
                                std::size_t lane_words,
                                std::size_t active_words,
                                double* lane_sums) const {
  if (multis_.empty()) return;
  detail::LaneScatterFn scatter = &lane_scatter_portable;
  if (sim::avx2_enabled()) {
    if (const auto avx2 = detail::avx2_lane_scatter()) scatter = avx2;
  }
  scatter(multis_.data(), multis_.size(), toggle_words, lane_words,
          active_words, lane_sums);
}

}  // namespace polaris::power
