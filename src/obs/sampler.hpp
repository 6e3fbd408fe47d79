// polaris::obs metrics sampler: a background thread that snapshots a
// registry every interval and appends the interval DELTA (Snapshot::
// subtract against the previous sample, exact - no separate rate
// estimator) as one JSON line to a metrics file, so an offline scraper
// reads per-interval rates without keeping state. Live readers need no
// history kept here: they subtract two status snapshots themselves.
//
// The obs contract holds: nothing here is serialized into bundles or
// fingerprints, and sampling on/off leaves every audit/mask output
// byte-identical (the sampler only ever *reads* the registry).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace polaris::obs {

/// Snapshots a Registry every `interval_ms`, appending one JSON line per
/// interval to `metrics_file` (a file that cannot be opened bumps
/// `obs.metrics_file_errors` instead). start()/stop() are idempotent;
/// stop() joins promptly (the sleep is a condvar wait, not a blind sleep).
class Sampler {
 public:
  struct Options {
    std::size_t interval_ms = 1000;
    std::string metrics_file;
  };

  Sampler(Registry& registry, Options options);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start();
  void stop();

  /// Samples taken over the lifetime (monotonic).
  [[nodiscard]] std::uint64_t samples() const { return samples_.load(); }
  [[nodiscard]] std::size_t interval_ms() const { return options_.interval_ms; }

 private:
  void run();
  /// One `{"wall_ms":...,"interval_ms":...,"counters":{...},...}` line.
  void append_metrics_line(std::int64_t wall_ms, std::int64_t interval_ms,
                           const Snapshot& delta);

  Registry& registry_;
  Options options_;
  std::atomic<std::uint64_t> samples_{0};
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
  bool running_ = false;
};

}  // namespace polaris::obs
