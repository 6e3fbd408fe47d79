// The POLARIS masking daemon: load a .plb bundle once, serve audit / mask /
// score requests over a Unix-domain socket for the lifetime of the process.
//
// polaris_cli pays a process launch, a bundle load, and cold caches on
// every invocation; the daemon pays them once. Every connection gets its
// own handler thread, but all TVLA work funnels into ONE engine::Scheduler
// - concurrent clients' campaign shards interleave in a single LPT queue,
// so a small audit rides in a big one's idle lanes exactly as multi-design
// offline audits do. Repeated requests for an unchanged design hit the
// core::ResultCache and replay byte-identical reply bodies.
//
// Connections, frame reading and the drain belong to a FrameListener
// (listener.hpp, metrics under "server."); the daemon supplies only its
// request handling. Shutdown is graceful: request_stop() (async-signal-safe:
// one write to a pipe) stops the accept loop; in-flight requests run to
// completion and their responses are delivered before wait() returns and
// the socket file is unlinked.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/polaris.hpp"
#include "core/result_cache.hpp"
#include "engine/scheduler.hpp"
#include "obs/sampler.hpp"
#include "server/listener.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "server/remote.hpp"
#include "server/request_log.hpp"
#include "techlib/techlib.hpp"

namespace polaris::server {

struct ServerOptions {
  std::string socket_path;  // endpoint spec: a UDS path (<= ~100 chars on
                            // Linux) or "tcp:host:port" (port 0 binds an
                            // ephemeral port; see Server::endpoint())
  std::string bundle_path;  // trained .plb bundle, loaded once at startup
  std::size_t threads = 0;  // scheduler fan-out: 0 = all hardware threads
  std::size_t max_frame = kDefaultMaxFrame;  // per-frame payload cap, bytes
  std::size_t cache_capacity = 256;          // result-cache entries
  int backlog = 64;  // listen(2) backlog: connections the kernel queues
                     // while the accept loop is busy spawning handlers
  /// Comma-separated shard-worker endpoints. Non-empty routes every audit
  /// campaign through a WorkerPool (local lanes + these workers) instead
  /// of the in-process scheduler; results stay byte-identical, so the
  /// result cache and its keys are untouched.
  std::string workers;
  // Live-operations knobs (pure telemetry; none affect served results):
  std::size_t sample_interval_ms = 1000;  // metrics-file period, 0 = off
  std::string metrics_file;  // append one JSON delta line per interval;
                             // empty = the sampler never runs
};

struct ServerStats {
  std::uint64_t requests_served = 0;  // responses sent, errors included
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;  // resident reply-body bytes in the cache
  std::uint64_t connections = 0;  // accepted over the lifetime
};

class Server {
 public:
  /// Loads the bundle and binds + listens on the socket (replacing a stale
  /// socket file). Throws std::runtime_error on a bad bundle or bind
  /// failure. No requests are served until start().
  explicit Server(ServerOptions options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the accept loop. Call once.
  void start();

  /// Initiates a graceful stop: no new connections, in-flight requests
  /// complete. Async-signal-safe (a single write to an internal pipe), so
  /// SIGINT/SIGTERM handlers may call it directly. Idempotent.
  void request_stop();

  /// Blocks until the accept loop and every connection handler have
  /// exited (after request_stop, or a served shutdown request). The socket
  /// file is unlinked before wait() returns.
  void wait();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const core::BundleInfo& bundle_info() const { return info_; }
  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }
  /// The endpoint actually bound - an ephemeral TCP port 0 in the options
  /// resolves to the kernel-assigned port here (tests depend on this).
  [[nodiscard]] const net::Endpoint& endpoint() const {
    return listener_.endpoint();
  }

 private:
  /// Decodes and serves one request payload. Returns false when the
  /// connection should close (a served shutdown request).
  bool handle_payload(int fd, std::vector<std::uint8_t>& payload);

  core::ResultCache::Body serve_ping();
  /// Live-operations snapshot: runtime identity, registry snapshot,
  /// the request log's in-flight and recent tables, per-campaign scheduler
  /// progress. Never cached: it is execution telemetry and changes between
  /// any two calls.
  core::ResultCache::Body serve_status();
  core::ResultCache::Body serve_audit(serialize::Reader& in, bool& cache_hit);
  /// Streaming audit: identical compute and cache key to serve_audit, but
  /// while the campaign runs it pushes one kOk frame per early-stop
  /// checkpoint (AUDP body) onto `fd`. The returned body is the final AUDS
  /// reply - byte-identical to the non-streaming one, so both kinds share
  /// cache entries (a cache hit streams zero partials).
  core::ResultCache::Body serve_audit_stream(int fd, serialize::Reader& in,
                                             bool& cache_hit);
  /// Shared audit implementation behind both kinds: validate, then the
  /// cached path with submit + drain as its compute step.
  core::ResultCache::Body audit_body(const AuditRequest& request,
                                     bool& cache_hit,
                                     tvla::ProgressFn progress);
  /// The cached path every design request takes: load the design (a
  /// failure is kBadRequest), key it as `key_seed` combined with its
  /// design fingerprint and then `key_parts`, replay a cached body, or
  /// run `compute` (a throw is kServerError) and cache the encoded reply.
  core::ResultCache::Body cached_body(
      const std::string& design_name, double scale, std::uint64_t key_seed,
      std::initializer_list<std::uint64_t> key_parts, bool& cache_hit,
      const std::function<std::vector<std::uint8_t>(const circuits::Design&)>&
          compute);
  core::ResultCache::Body serve_mask(serialize::Reader& in, bool& cache_hit);
  core::ResultCache::Body serve_score(serialize::Reader& in, bool& cache_hit);

  ServerOptions options_;
  core::BundleInfo info_;  // before polaris_: the bundle load fills it
  core::Polaris polaris_;
  techlib::TechLibrary lib_ = techlib::TechLibrary::default_library();
  engine::Scheduler scheduler_;
  /// Non-null when --workers was given: audits run distributed.
  std::unique_ptr<WorkerPool> pool_;
  core::ResultCache cache_;
  RequestLog log_;
  obs::Sampler sampler_;
  std::int64_t start_mono_ns_ = 0;  // obs::now_ns() at construction

  /// Last member: destroyed first, so destroying a running daemon drains
  /// it while the state its handlers use is still alive.
  FrameListener listener_;
};

}  // namespace polaris::server
