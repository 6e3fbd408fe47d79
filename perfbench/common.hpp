// Shared plumbing for the POLARIS benchmark: timing, statistics, the
// result/metric record, report digests, host facts, and seed derivation.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "obs/obs.hpp"
#include "sim/simd.hpp"
#include "tvla/tvla.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Median (0 for an empty sample).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile, p in [0, 1] (0 for an empty sample).
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Resets the kernel's resident-set high-water mark to the current RSS
/// (writing "5" to /proc/self/clear_refs), so that peak_rss_mb() then reads
/// the peak of what runs after this call, not of set-up.
inline void reset_peak_rss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  const bool ok = fd >= 0 && ::write(fd, "5", 1) == 1;
  if (fd >= 0) ::close(fd);
  if (!ok) throw std::runtime_error("cannot reset the peak RSS mark");
}

/// VmHWM: the resident-set high-water mark since the last reset_peak_rss().
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// SplitMix64 finalizer over (seed, a, b): derives independent per-op,
/// per-client and per-request seeds from the workload seed.
inline std::uint64_t mix(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b = 0) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                    (b * 0xC2B2AE3D27D4EB4FULL) ^ 0x5DEECE66DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a over everything a workload outputs; the stored default-seed
/// digests in perfbench/digests.json pin the program's results.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void body(const std::vector<std::uint8_t>& data) {
    u64(data.size());
    bytes(data.data(), data.size());
  }
  void report(const polaris::tvla::LeakageReport& report) {
    u64(report.group_count());
    for (std::size_t g = 0; g < report.group_count(); ++g) {
      const double t = report.t_value(g);
      bytes(&t, sizeof t);
      u64(report.measured(g) ? 1 : 0);
    }
    u64(report.traces_used());
    u64(report.early_stopped() ? 1 : 0);
  }
  [[nodiscard]] std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

inline bool same_report(const polaris::tvla::LeakageReport& a,
                        const polaris::tvla::LeakageReport& b) {
  Digest da, db;
  da.report(a);
  db.report(b);
  return da.hex() == db.hex();
}

/// Sanity check every audit output must pass: one t per group, some groups
/// measured, every t finite.
inline bool plausible(const polaris::tvla::LeakageReport& report,
                      std::size_t expected_groups) {
  if (report.group_count() != expected_groups) return false;
  if (report.measured_count() == 0) return false;
  for (const double t : report.t_values()) {
    if (!std::isfinite(t)) return false;
  }
  return true;
}

/// One named metric with its unit, printed with every digit it has.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A workload run's record: the contract counters plus three metric
/// groups - `end_to_end` (final line, untraced), `layers` (final line,
/// traced), and `detail` (the workload's own named metrics, printed on the
/// line before).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool digest_ok = false;
  std::string digest;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<Metric> detail;
  std::vector<std::string> failures;  // first few messages, for stderr

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  [[nodiscard]] bool correct() const { return failed == 0 && digest_ok; }
};

inline void add(std::vector<Metric>& into, std::string name, double value,
                std::string unit) {
  into.push_back({std::move(name), value, std::move(unit)});
}

inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

inline std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ',';
    out += "\"" + m.name + "\":{\"value\":" + json_number(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  return out + "}";
}

inline std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Host facts stamped on every result: what ran, where, built how.
inline std::string host_json(const std::string& source_id,
                             const std::string& commit) {
  const std::size_t words = polaris::sim::default_lane_words();
  const auto runtime = polaris::obs::runtime_info();
  return "{\"nproc\":" + std::to_string(nproc()) + ",\"cpu_model\":\"" +
         json_escape(cpu_model()) + "\",\"simd\":\"" +
         polaris::sim::simd_name(words) +
         "\",\"lane_words\":" + std::to_string(words) +
         ",\"build_type\":\"" + runtime.build_type + "\",\"cmake_build_type\":\"" +
         POLARIS_BUILD_TYPE + "\",\"source_id\":\"" + json_escape(source_id) +
         "\",\"commit\":\"" + json_escape(commit) + "\"}";
}

/// The paper's POLARIS parameters (Sec. V-A) as the Table II reproduction
/// uses them: bench::BenchSetup::polaris_config at its default budget.
inline polaris::core::PolarisConfig paper_config(std::uint64_t seed,
                                                 std::size_t threads) {
  polaris::bench::BenchSetup setup;
  setup.seed = seed;
  setup.threads = threads;
  return setup.polaris_config();
}

/// A plain fixed-budget audit config (no model knobs matter to audits).
inline polaris::core::PolarisConfig audit_config(std::size_t traces,
                                                 std::uint64_t seed,
                                                 std::size_t threads) {
  polaris::core::PolarisConfig config;
  config.tvla.traces = traces;
  config.tvla.noise_std_fj = 1.0;
  config.tvla.seed = seed;
  config.seed = seed;
  config.threads = threads;
  return config;
}

/// Runs `op` (which returns its own wall seconds) until the next op would
/// likely end past `seconds`; at least one op always runs.
template <class Op>
std::vector<double> measure_for(double seconds, Op&& op) {
  std::vector<double> walls;
  const auto start = Clock::now();
  do {
    walls.push_back(op(walls.size()));
  } while (seconds_since(start) + median(walls) <= seconds);
  return walls;
}

/// Runs `setup` `reps` times and returns the median wall seconds;
/// `teardown` runs between repetitions (never after the last).
template <class Setup, class Teardown>
double median_setup(std::size_t reps, Setup&& setup, Teardown&& teardown) {
  std::vector<double> walls;
  for (std::size_t r = 0; r < reps; ++r) {
    if (r > 0) teardown();
    const auto start = Clock::now();
    setup();
    walls.push_back(seconds_since(start));
  }
  return median(walls);
}

/// Counter/histogram deltas of the process-wide obs registry.
class ObsWindow {
 public:
  ObsWindow() : before_(polaris::obs::Registry::global().snapshot()) {}
  [[nodiscard]] polaris::obs::Snapshot delta() const {
    auto now = polaris::obs::Registry::global().snapshot();
    now.subtract(before_);
    return now;
  }

 private:
  polaris::obs::Snapshot before_;
};

inline std::uint64_t traces_run() {
  return polaris::obs::Registry::global().counter("tvla.traces_run").value();
}

}  // namespace perfbench
