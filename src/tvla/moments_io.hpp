// Archive bindings for CampaignMoments - the work-unit payload of the
// distributed shard backend (DESIGN.md "Distributed execution").
//
// A remote worker runs a shard and ships its UNMERGED per-shard moments
// back; the coordinator replays the scheduler's ascending-shard-order
// merge, so the final report is bit-identical to a single-host run. That
// contract only holds if the codec round-trips the accumulator state
// exactly: integer counters as-is, every double as its IEEE-754 bit
// pattern (which serialize::Writer::f64 already guarantees).
#pragma once

#include "serialize/archive.hpp"
#include "tvla/moments.hpp"

namespace polaris::tvla {

/// Writes one "MOM2" chunk holding the full accumulator state:
///   u64 n_fixed, u64 n_random,
///   u64 groups,  groups x (u64 single_ones_fixed, u64 single_ones_random),
///   u64 multis,  multis x (fixed, random) accumulators of
///                (u64 count, f64 mean, f64 S2) - 24 bytes each.
void write_moments(serialize::Writer& out, const CampaignMoments& moments);

/// Reads one "MOM2" chunk; the retired order-4 "MOMS" layout is rejected.
/// Applies the archive's check-before-allocate policy to the group counts;
/// throws std::runtime_error on malformed input. The returned object
/// merges bit-identically to the original.
[[nodiscard]] CampaignMoments read_moments(serialize::Reader& in);

}  // namespace polaris::tvla
