// Lane scatter: the float half of the multi-member readout
// (power/sample_plan.hpp). For every multi-member op and every sampled lane
// word, the op's energy is added to its group's per-lane sum in each lane
// whose toggle bit is set.
//
// Two implementations produce identical lane sums:
//  * portable: walks the set bits with ctz and adds the energy lane by lane;
//  * AVX2: one masked add per 4 lanes, built in its own -mavx2 translation
//    unit (lane_scatter_avx2.cpp). The toggle word is broadcast, compared
//    against a 4-lane bit selector, and the all-ones compare mask is ANDed
//    with the energy, so a clear lane adds +0.0.
// Both visit ops in the same (ascending GateId) order, so every lane sees
// the same sequence of nonzero adds. The extra +0.0 adds are exact: a lane
// sum starts at +0.0 and active energies are positive, so it is never -0.0,
// and x + 0.0 == x bit for bit for every other x.
// The dispatch keys on sim::avx2_enabled(): POLARIS_SIMD=off (or a forced
// kPortable mode) selects the portable loop.
//
// This header deliberately includes nothing beyond fixed-width integers: it
// is the only project header the -mavx2 unit sees, so no inline function
// compiled there can leak AVX2 code into the base-ISA build.
#pragma once

#include <cstddef>
#include <cstdint>

namespace polaris::power {

/// One member of a multi-member group: accumulate `energy` into the group's
/// per-lane sums for each set toggle bit.
struct MultiOp {
  std::uint32_t toggle_slot;
  std::uint32_t multi;  // dense index into the multi-group space
  double energy;
};

namespace detail {

///   toggle_words - blocked array (slot s owns words [s*K, (s+1)*K))
///   lane_words   - K
///   active_words - leading words to scatter (a tail block has fewer than K)
///   lane_sums    - multi-group count * K * 64 doubles; group m, word w,
///                  lane l lives at (m*K + w)*64 + l
using LaneScatterFn = void (*)(const MultiOp* ops, std::size_t count,
                               const std::uint64_t* toggle_words,
                               std::size_t lane_words,
                               std::size_t active_words, double* lane_sums);

/// The AVX2 scatter, or nullptr when the build lacks the -mavx2 unit.
[[nodiscard]] LaneScatterFn avx2_lane_scatter() noexcept;

}  // namespace detail

}  // namespace polaris::power
