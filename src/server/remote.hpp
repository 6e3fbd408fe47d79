// Distributed shard coordinator: runs a multi-design TVLA audit on local
// lanes plus remote shard workers (server/worker.hpp), through the same
// engine::Scheduler every local campaign uses.
//
// audit() submits each design's campaign (a tvla::ShardRunner, through
// tvla::submit) to a private Scheduler and drains it on `local_threads`
// lanes. One feeder thread per remote worker claims up to
// kShardsPerChunk consecutive shards of one campaign from that scheduler's
// queue, in LPT order, ships them, validates the reply, and deposits each
// shard's moments into the campaign's ascending incremental merge - the
// one a local shard feeds, early-stop checkpoints included. Designs ship
// on a miss: a worker that lacks one answers kUnknownDesign, and the
// feeder installs it and re-sends the chunk, so a long-lived worker
// receives each design once, not once per audit. A shard's
// moments are a pure function of (design, config, shard index), so audit
// output is byte-identical to a single-host run at ANY worker count,
// including zero and including workers dying mid-campaign. Once a
// checkpoint stops a campaign, its unclaimed shards are neither run nor
// sent.
//
// Failure semantics: a worker that cannot be reached, times out, or
// closes its connection is marked dead; its unanswered chunks are released
// back to the queue (counted as resends) and completed by the remaining
// lanes - a campaign always finishes as long as the coordinator itself
// lives, because local lanes can run anything.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "techlib/techlib.hpp"

namespace polaris::server {

/// Consecutive shards per work unit: big enough to amortize a round trip,
/// small enough that LPT balancing still has pieces to place (a campaign
/// has 16..64 shards).
inline constexpr std::size_t kShardsPerChunk = 4;

struct WorkerPoolOptions {
  std::string workers;            // comma-separated endpoint specs
  std::size_t local_threads = 0;  // local lanes; 0 = all hardware threads
  std::size_t max_frame = kDefaultMaxFrame;
};

class WorkerPool {
 public:
  /// Parses the worker list (no connections are made until audit()).
  /// Throws std::runtime_error on an unparseable endpoint spec.
  explicit WorkerPool(WorkerPoolOptions options);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Audits every design, one result per input design in input order -
  /// the distributed drop-in for core::audit_designs, byte-identical
  /// output included. `progress` mirrors the scheduler path: it fires on
  /// early-stop checkpoint evaluations, on whichever local lane or feeder
  /// thread completed the merged prefix. A failed campaign rethrows here.
  [[nodiscard]] std::vector<tvla::LeakageReport> audit(
      std::span<const circuits::Design> designs,
      const techlib::TechLibrary& lib, const core::PolarisConfig& config,
      tvla::ProgressFn progress = {});

  /// Per-worker fleet health, cumulative across audit() calls.
  [[nodiscard]] std::vector<WorkerHealthEntry> health() const;

  struct Totals {
    std::uint64_t shards_out = 0;   // shards answered plus still in flight
    std::uint64_t moments_in = 0;   // shard moment blocks received back
    std::uint64_t bytes = 0;        // payload bytes, both directions
    std::uint64_t bytes_out = 0;    // of which requests: installs + shards
    std::uint64_t resends = 0;      // shards requeued after worker loss
  };
  [[nodiscard]] Totals totals() const;

 private:
  /// Cumulative per-worker stats; feeder threads update them across
  /// audit() calls, health() snapshots them.
  struct WorkerSlot {
    net::Endpoint endpoint;
    std::string display;
    std::atomic<bool> alive{true};
    std::atomic<std::uint64_t> inflight{0};  // shards, like the rest
    std::atomic<std::uint64_t> shards_done{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> resends{0};
  };

  struct Audit;  // one audit() call's scheduler and design table

  void feed_worker(WorkerSlot& slot, Audit& audit);

  WorkerPoolOptions options_;
  std::vector<std::unique_ptr<WorkerSlot>> workers_;
};

}  // namespace polaris::server
