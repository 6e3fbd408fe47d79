// The POLARIS shard worker: a process that executes TVLA campaign shards
// on behalf of a remote coordinator (server/remote.hpp).
//
// A worker is the serve daemon's little sibling: its connections, frame
// reading and graceful drain are the daemon's own server::FrameListener
// (listener.hpp, metrics under "worker."), and it adds only its request
// handling - no bundle, no result cache, and four request kinds (ping /
// design / shard / shutdown). A shard request names its design by content fingerprint; a
// worker that does not hold it answers kUnknownDesign, and the coordinator
// installs it with kDesign (netlist + input roles) and re-sends. The worker
// compiles each installed design once and keeps the tvla::ShardRunner of
// its latest campaign, so later shard requests for that campaign reuse the
// plan. Installed designs and their runners live in one
// LRU cache under a fixed byte budget; an evicted design is simply
// installed again on its next miss. Shard requests carry only the
// fingerprint, the canonical config, and a shard range - a few hundred
// bytes - and the reply ships the per-shard UNMERGED moment blocks back as
// an archive.
//
// Determinism: per-shard moments are a pure function of (design, config,
// shard index) - stimulus streams are counter-keyed per batch and blocks
// re-anchor at the shard boundary - so the worker is free to pick its own
// thread count and SIMD width without perturbing a single output bit. A
// request's shards fan out over engine::ThreadPool::shared(), capped at the
// worker's `threads`.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/listener.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "sim/compiled.hpp"
#include "techlib/techlib.hpp"

namespace polaris::server {

struct WorkerOptions {
  std::string listen;       // endpoint spec: "tcp:host:port" or a UDS path
                            // (tcp port 0 binds ephemeral; see endpoint())
  std::size_t threads = 0;  // shard-level fan-out: 0 = all hardware threads
  std::size_t max_frame = kDefaultMaxFrame;  // per-frame payload cap, bytes
  int backlog = 64;         // listen(2) backlog
};

class Worker {
 public:
  /// Binds + listens on the configured endpoint. Throws std::runtime_error
  /// on bind failure. No requests are served until start().
  explicit Worker(WorkerOptions options);
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Spawns the accept loop. Call once.
  void start();

  /// Graceful stop, async-signal-safe (one pipe write). Idempotent.
  void request_stop();

  /// Blocks until the accept loop and every handler have exited.
  void wait();

  /// The endpoint actually bound - an ephemeral TCP port 0 in the options
  /// resolves to the kernel-assigned port here (tests depend on this).
  [[nodiscard]] const net::Endpoint& endpoint() const {
    return listener_.endpoint();
  }

  [[nodiscard]] std::uint64_t shards_run() const { return shards_run_.load(); }
  [[nodiscard]] std::uint64_t requests_served() const {
    return listener_.requests_served();
  }

 private:
  /// Decodes and serves one request payload. Returns false when the
  /// connection should close (a served shutdown request).
  bool handle_payload(int fd, std::vector<std::uint8_t>& payload);

  std::vector<std::uint8_t> serve_ping();
  std::vector<std::uint8_t> serve_design(serialize::Reader& in);
  std::vector<std::uint8_t> serve_shards(serialize::Reader& in);

  /// One installed design: its compiled plan and the runner of its most
  /// recent campaign. Within one audit every shard request for a design
  /// carries the same config; a new config replaces the runner.
  /// Heap-owned and shared: a shard run holds its entry, so an eviction
  /// never frees a netlist that a runner reads.
  struct Installed {
    std::uint64_t fingerprint = 0;
    std::size_t bytes = 0;  // resident-size estimate charged to the budget
    circuits::Design design;
    sim::CompiledDesignPtr compiled;
    std::pair<std::uint64_t, std::shared_ptr<tvla::ShardRunner>>
        runner;  // (config fingerprint, runner), guarded by designs_mutex_
  };
  struct Campaign {
    std::shared_ptr<Installed> design;  // keeps the runner's netlist alive
    std::shared_ptr<tvla::ShardRunner> runner;
  };

  /// The runner for the request's (config, design) pair, built from the
  /// installed plan on first use. Throws kUnknownDesign when the design is
  /// not installed.
  Campaign campaign_for(const ShardRequest& request);
  /// Looks up an installed design and marks it most recently used. Caller
  /// holds designs_mutex_.
  std::shared_ptr<Installed> find_design(std::uint64_t fingerprint);

  WorkerOptions options_;
  techlib::TechLibrary lib_ = techlib::TechLibrary::default_library();

  std::mutex designs_mutex_;
  std::list<std::shared_ptr<Installed>> lru_;  // most recently used first
  std::unordered_map<std::uint64_t,
                     std::list<std::shared_ptr<Installed>>::iterator>
      designs_;  // by design fingerprint, into lru_
  std::size_t resident_bytes_ = 0;  // sum of lru_ entries' bytes

  std::atomic<std::uint64_t> shards_run_{0};

  /// Last member: destroyed first, so destroying a running worker drains
  /// it while the designs its handlers use are still alive.
  FrameListener listener_;
};

}  // namespace polaris::server
