#include "obs/sampler.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace polaris::obs {

Sampler::Sampler(Registry& registry, Options options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.interval_ms == 0) options_.interval_ms = 1000;
}

Sampler::~Sampler() { stop(); }

void Sampler::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread(&Sampler::run, this);
}

void Sampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

void Sampler::run() {
  static auto& samples = Registry::global().counter("obs.samples");
  Snapshot previous;
  std::int64_t previous_ns = 0;
  bool have_previous = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (wake_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                         [this] { return stop_requested_; })) {
        return;
      }
    }
    const std::int64_t wall_ms = wall_clock_ms();
    const std::int64_t mono_ns = now_ns();
    Snapshot current = registry_.snapshot();
    // The first line has no predecessor: totals so far over the nominal
    // interval.
    Snapshot delta = current;
    auto interval_ms = static_cast<std::int64_t>(options_.interval_ms);
    if (have_previous) {
      delta.subtract(previous);
      interval_ms = (mono_ns - previous_ns) / 1000000;
    }
    append_metrics_line(wall_ms, interval_ms, delta);
    samples.add();
    samples_.fetch_add(1);
    previous = std::move(current);
    previous_ns = mono_ns;
    have_previous = true;
  }
}

void Sampler::append_metrics_line(std::int64_t wall_ms,
                                  std::int64_t interval_ms,
                                  const Snapshot& delta) {
  std::FILE* file = std::fopen(options_.metrics_file.c_str(), "a");
  if (file == nullptr) {
    static auto& errors = Registry::global().counter("obs.metrics_file_errors");
    errors.add();
    return;
  }
  const std::string fragment = delta.json_fragment();
  std::fprintf(file, "{\"wall_ms\":%" PRId64 ",\"interval_ms\":%" PRId64 ",%s}\n",
               wall_ms, interval_ms, fragment.c_str());
  std::fclose(file);
}

}  // namespace polaris::obs
