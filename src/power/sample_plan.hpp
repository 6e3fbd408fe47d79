// Compiled sampling plan: the fused toggle/energy readout layout shared by
// power::PowerModel consumers and tvla campaigns.
//
// Built once per (design, power model, compiled plan) triple, it resolves
// every active gate (nonzero switching energy) to its compiled toggle slot
// and pre-buckets the set by TVLA group:
//  * singles - groups with exactly one active member: the binary-counting
//    fast path (per-trace sample is 0 or the member's energy);
//  * multis  - members of groups with >= 2 active cells (masked composite
//    gates), laid out as an SoA run of (toggle slot, multi index, energy).
//
// Accumulation-order contract (what keeps golden t-stats bit-identical):
// multi members are stored in ascending GateId order - globally, and
// therefore within every group - so the per-group double accumulation
// order of lane-energy sums is exactly the ascending-id order the
// pre-compiled sampler used. Singles carry no float order: their counters
// are exact integers, so they are stored in ascending toggle-slot order
// instead, and the single readout streams the toggle array forward.
//
// Blocked readout (sample()): one call ingests a whole K-word lane block -
// up to K batches of 64 traces evaluated in one simulator pass. Multi
// members are first scattered into per-(group, word, lane) energy sums
// (power/lane_scatter.hpp: portable or AVX2, identical sums). Then, per
// multi group, samples are pushed word-major (ascending lane word =
// ascending batch index), lane-ascending within a word: exactly the
// batch-major sample sequence the one-word-at-a-time path produced, so the
// moment updates see an identical float op order at every block width.
// The push runs over tiles of kPushTile groups: for each (word, lane) every
// group of the tile takes its sample before the next lane. That
// interleaves groups but not any one accumulator's sequence, and it lets
// the independent division chains of a tile's accumulators overlap.
// Tail contract: only the first `active_words` words of a block are
// sampled; trailing words (trace counts not divisible by 64*K) are
// evaluated but never read, and their lane_sums scratch stays zero.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/lane_scatter.hpp"
#include "power/power_model.hpp"
#include "sim/compiled.hpp"

namespace polaris::power {

class SamplePlan {
 public:
  static constexpr std::uint32_t kNotMulti = 0xffffffffU;

  /// `compiled` must be a plan for the same netlist `power` was built on.
  SamplePlan(const sim::CompiledDesign& compiled, const PowerModel& power);

  /// One lone-member group: read one toggle word, count set lanes.
  struct SingleOp {
    std::uint32_t toggle_slot;
    netlist::GateId group;
  };
  /// Multi groups whose samples are pushed together, lane by lane.
  static constexpr std::size_t kPushTile = 16;

  [[nodiscard]] const std::vector<SingleOp>& singles() const { return singles_; }
  [[nodiscard]] const std::vector<MultiOp>& multis() const { return multis_; }

  /// Total leakage-accounting groups (max gate group id + 1).
  [[nodiscard]] std::size_t group_count() const { return group_measured_.size(); }
  /// Groups with at least one active member (the measurable set).
  [[nodiscard]] const std::vector<bool>& group_measured() const {
    return group_measured_;
  }
  [[nodiscard]] std::size_t multi_group_count() const {
    return multi_group_ids_.size();
  }
  /// Dense multi index of a group, or kNotMulti for single/empty groups.
  [[nodiscard]] std::uint32_t group_multi_index(netlist::GateId group) const {
    return group_multi_index_[group];
  }
  /// Lone member's switching energy for single groups (0 otherwise): places
  /// the binary {0, E} samples on the physical scale the noise floor lives on.
  [[nodiscard]] double single_energy(netlist::GateId group) const {
    return single_energy_[group];
  }

  /// Fused toggle/energy readout of one K-word lane block.
  ///   toggle_words - blocked array (slot s owns words [s*K, (s+1)*K))
  ///   lane_words   - K, the simulator's block width
  ///   active_words - words actually carrying sampled batches (tail: < K)
  ///   class_masks  - per-word fixed-class lane masks (active_words entries)
  ///   lane_sums    - zeroed scratch, multi_group_count() * K * 64 doubles;
  ///                  returned zeroed
  ///   moments      - tvla::CampaignMoments-shaped sink (template keeps the
  ///                  power module independent of the tvla module)
  /// Singles feed exact integer counters (fixed and total set lanes per
  /// word, one add_single_ones per op); multi members accumulate
  /// pre-resolved energies per (word, lane) in ascending-GateId order, then
  /// every (word, lane) sample is pushed word-major / lane-ascending per
  /// group, kPushTile groups at a time - the accumulation-order contract
  /// above.
  template <class Moments>
  void sample(const std::uint64_t* toggle_words, std::size_t lane_words,
              std::size_t active_words, const std::uint64_t* class_masks,
              double* lane_sums, Moments& moments) const {
    constexpr std::size_t kLanesPerWord = 64;
    for (std::size_t w = 0; w < active_words; ++w) {
      const auto n_fixed =
          static_cast<std::uint64_t>(__builtin_popcountll(class_masks[w]));
      moments.add_lane_counts(n_fixed, kLanesPerWord - n_fixed);
    }
    // Branch-free: zero toggle words are common but irregular (up to half
    // of them on some designs), so skipping them mispredicts more than the
    // two popcounts cost.
    for (const SingleOp& op : singles_) {
      const std::uint64_t* block =
          toggle_words + static_cast<std::size_t>(op.toggle_slot) * lane_words;
      std::uint64_t fixed_ones = 0;
      std::uint64_t all_ones = 0;
      for (std::size_t w = 0; w < active_words; ++w) {
        const std::uint64_t toggles = block[w];
        fixed_ones += static_cast<std::uint64_t>(
            __builtin_popcountll(toggles & class_masks[w]));
        all_ones += static_cast<std::uint64_t>(__builtin_popcountll(toggles));
      }
      moments.add_single_ones(op.group, fixed_ones, all_ones - fixed_ones);
    }
    scatter_multis(toggle_words, lane_words, active_words, lane_sums);
    // Every sampled word contributes one sample per lane to each multi
    // group (possibly zero-valued); push word-major and clear.
    const std::size_t multi_count = multi_group_ids_.size();
    const std::size_t group_stride = lane_words * kLanesPerWord;
    for (std::size_t m0 = 0; m0 < multi_count; m0 += kPushTile) {
      const std::size_t m1 = std::min(m0 + kPushTile, multi_count);
      for (std::size_t w = 0; w < active_words; ++w) {
        const std::uint64_t mask = class_masks[w];
        double* word_sums = lane_sums + w * kLanesPerWord;
        for (std::size_t lane = 0; lane < kLanesPerWord; ++lane) {
          const bool fixed = ((mask >> lane) & 1ULL) != 0;
          for (std::size_t m = m0; m < m1; ++m) {
            double& sum = word_sums[m * group_stride + lane];
            moments.add_multi_sample(m, fixed, sum);
            sum = 0.0;
          }
        }
      }
    }
  }

 private:
  /// Lane scatter of every multi member (lane_scatter.hpp), AVX2 when
  /// sim::avx2_enabled().
  void scatter_multis(const std::uint64_t* toggle_words,
                      std::size_t lane_words, std::size_t active_words,
                      double* lane_sums) const;

  std::vector<SingleOp> singles_;
  std::vector<MultiOp> multis_;
  std::vector<bool> group_measured_;
  std::vector<std::uint32_t> group_multi_index_;
  std::vector<netlist::GateId> multi_group_ids_;
  std::vector<double> single_energy_;
};

}  // namespace polaris::power
