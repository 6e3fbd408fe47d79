// A second executor for the bit-identity tests: runs a campaign shard by
// shard through tvla::ShardRunner, in ascending order on
// the calling thread, merges and finalizes - without touching an
// engine::Scheduler. Scheduler results compared against it are checked
// against a different execution path, not against themselves.
#pragma once

#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"

namespace polaris {

/// Campaigns without an early-stop budget only: no checkpoint runs.
inline tvla::LeakageReport serial_reference(
    const netlist::Netlist& design, const techlib::TechLibrary& lib,
    const tvla::TvlaConfig& config) {
  tvla::ShardRunner runner(design, lib, config);
  if (runner.shard_count() == 0) return runner.finalize(runner.run_shard(0));
  tvla::CampaignMoments total = runner.run_shard(0);
  for (std::size_t shard = 1; shard < runner.shard_count(); ++shard) {
    total.merge(runner.run_shard(shard));
  }
  return runner.finalize(total);
}

}  // namespace polaris
