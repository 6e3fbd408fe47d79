// Serving-throughput bench: an in-process serve daemon (real Unix-domain
// socket, real framed protocol) hammered by 1 and 8 concurrent clients,
// cold cache (every request a fresh audit seed -> full TVLA compute) vs
// warm cache (identical request -> O(lookup) replay). Emits one
// bench_common::JsonLine per scenario so BENCH_*.json tracks requests/sec
// and p50/p95 latency for the daemon path alongside the compute benches.
//
// Env knobs (bench_common.hpp): POLARIS_BENCH_TRACES scales the audit
// budget, POLARIS_BENCH_THREADS the daemon's scheduler fan-out,
// POLARIS_BENCH_BUNDLE skips training.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "util/timer.hpp"

using namespace polaris;

namespace {

struct Scenario {
  std::size_t clients;
  bool warm;
  std::size_t requests_per_client;
};

struct Measurement {
  std::vector<double> latencies_ms;  // per request
  double wall_seconds = 0.0;
};

double percentile(std::vector<double>& values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(fraction * static_cast<double>(values.size())));
  return values[index];
}

Measurement run_scenario(const std::string& socket_path,
                         const core::PolarisConfig& base_config,
                         const Scenario& scenario, std::uint64_t seed_base) {
  std::vector<std::vector<double>> per_client(scenario.clients);
  std::vector<std::thread> threads;
  util::Timer wall;
  for (std::size_t c = 0; c < scenario.clients; ++c) {
    threads.emplace_back([&, c] {
      server::Client client(socket_path);
      for (std::size_t r = 0; r < scenario.requests_per_client; ++r) {
        server::AuditRequest request;
        request.design = "square";
        request.scale = 0.4;
        request.config = base_config;
        // Warm: every request identical (after the warm-up miss, all
        // hits). Cold: a fresh seed per request defeats the cache.
        request.config.tvla.seed =
            scenario.warm ? seed_base
                          : seed_base + 1 + c * scenario.requests_per_client + r;
        request.config.seed = request.config.tvla.seed;
        util::Timer timer;
        const auto reply = client.audit(request);
        per_client[c].push_back(timer.seconds() * 1e3);
        if (reply.report.group_count() == 0) std::abort();  // impossible
      }
    });
  }
  for (auto& thread : threads) thread.join();
  Measurement measurement;
  measurement.wall_seconds = wall.seconds();
  for (auto& latencies : per_client) {
    measurement.latencies_ms.insert(measurement.latencies_ms.end(),
                                    latencies.begin(), latencies.end());
  }
  return measurement;
}

}  // namespace

int main() {
  const auto setup = bench::BenchSetup::from_env();
  std::printf("=== polaris serve: daemon throughput ===\n\n");

  auto config = setup.polaris_config();
  const auto training = circuits::training_suite();
  auto trained = bench::trained_polaris(config, training, setup.lib);

  // The daemon serves from a bundle file; reuse POLARIS_BENCH_BUNDLE's or
  // write a transient one.
  const char* env_bundle = std::getenv("POLARIS_BENCH_BUNDLE");
  std::string bundle_path;
  bool transient_bundle = false;
  if (env_bundle != nullptr && *env_bundle != '\0' && trained.from_bundle) {
    bundle_path = env_bundle;
  } else {
    bundle_path = "/tmp/polaris_bench_serve_" +
                  std::to_string(static_cast<unsigned long>(::getpid())) +
                  ".plb";
    trained.polaris.save_bundle(bundle_path);
    transient_bundle = true;
  }

  server::ServerOptions options;
  options.socket_path = "/tmp/polaris_bench_serve_" +
                        std::to_string(static_cast<unsigned long>(::getpid())) +
                        ".sock";
  options.bundle_path = bundle_path;
  options.threads = setup.threads;
  server::Server daemon(options);
  daemon.start();

  // Audits sized so a cold request is real TVLA work but the bench stays
  // seconds-scale: 1/16 of the configured budget, floored at 512.
  auto audit_config = config;
  audit_config.tvla.traces = std::max<std::size_t>(512, setup.traces / 16);

  const Scenario scenarios[] = {
      {1, false, 8}, {8, false, 4}, {1, true, 64}, {8, true, 32}};
  std::uint64_t seed_base = 1000;
  for (const auto& scenario : scenarios) {
    if (scenario.warm) {
      // One warm-up request populates the cache entry the scenario hits.
      (void)run_scenario(daemon.socket_path(), audit_config,
                         {1, true, 1}, seed_base);
    }
    // Daemon-side latency comes from the server's own request histogram:
    // registry snapshots before/after the scenario, interval delta via
    // HistogramSnapshot::subtract. The snapshots travel over the real
    // socket (the `status` request), exactly as an external monitor's would.
    server::Client stats_client(daemon.socket_path());
    const obs::Snapshot stats_before = stats_client.status().snapshot;
    auto measurement = run_scenario(daemon.socket_path(), audit_config,
                                    scenario, seed_base);
    const obs::Snapshot stats_after = stats_client.status().snapshot;
    double daemon_p50_ms = 0.0;
    double daemon_p95_ms = 0.0;
    if (const auto* after = stats_after.find_histogram("server.audit_us")) {
      obs::HistogramSnapshot delta = *after;
      if (const auto* before = stats_before.find_histogram("server.audit_us")) {
        delta.subtract(*before);
      }
      daemon_p50_ms = delta.percentile(0.50) / 1e3;
      daemon_p95_ms = delta.percentile(0.95) / 1e3;
    }
    const std::size_t total = measurement.latencies_ms.size();
    const double rps =
        measurement.wall_seconds > 0.0
            ? static_cast<double>(total) / measurement.wall_seconds
            : 0.0;
    bench::JsonLine line("serve");
    line.field("clients", scenario.clients)
        .field("cache", scenario.warm ? "warm" : "cold")
        .field("requests", total)
        .field("traces", audit_config.tvla.traces)
        .field("threads", setup.threads)
        .field("rps", rps, 1)
        .field("p50_ms", percentile(measurement.latencies_ms, 0.50), 3)
        .field("p95_ms", percentile(measurement.latencies_ms, 0.95), 3)
        .field("daemon_p50_ms", daemon_p50_ms, 3)
        .field("daemon_p95_ms", daemon_p95_ms, 3)
        .field("wall_s", measurement.wall_seconds, 3);
    line.print();
    seed_base += 10000;  // scenarios never share cold seeds
  }

  daemon.request_stop();
  daemon.wait();
  std::remove(options.socket_path.c_str());
  if (transient_bundle) std::remove(bundle_path.c_str());
  return 0;
}
