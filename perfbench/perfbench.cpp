// The POLARIS benchmark: four workloads, end-to-end metrics, output checks,
// and (with --trace 1) a layer ledger measured from outside the library.
//
//   polaris_perfbench --workload W --seed N --seconds S --trace 0|1
//                     [--expect-digest HEX] [--run-dir DIR]
//                     [--source-id ID] [--commit ID]
//
// Normally started through perfbench/run.py, which builds this program and
// passes the stored default-seed digest. See perfbench/README.md for what
// each workload and metric means, and perfbench/ledger.json for which
// end-to-end metric each layer metric should move.
#include <filesystem>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <unistd.h>

#include "common.hpp"
#include "core/polaris.hpp"
#include "engine/scheduler.hpp"
#include "graph/features.hpp"
#include "ledger.hpp"
#include "masking/masking.hpp"
#include "netlist/verilog.hpp"
#include "server/client.hpp"
#include "server/net.hpp"
#include "server/remote.hpp"
#include "server/server.hpp"
#include "server/worker.hpp"

namespace perfbench {
namespace {

namespace core = polaris::core;
namespace circuits = polaris::circuits;
namespace server = polaris::server;
namespace tvla = polaris::tvla;

constexpr std::uint64_t kDefaultSeed = 1;
// suite_audit: fixed budget per design, large enough that shard work, not
// per-campaign set-up, dominates an audit.
constexpr std::size_t kSuiteTraces = 131072;
// distributed_audit: the budget at which the re-anchor measured ~1x.
constexpr std::size_t kDistributedTraces = 65536;
constexpr std::size_t kDistributedWorkers = 2;
// train_mask: design scale. At 1.0 the op's wall is set by masked des3
// (526k gates, sequential, so only 4 shards at 8192 traces) and swings with
// host contention three times as much as suite_audit does; at 0.75 every
// masked netlist is still multi-member groups on the float moment path.
constexpr double kTrainMaskScale = 0.75;
// Set-up repetitions where set-up is only design construction and socket
// start (~40 ms): enough that the median spans about a second of host time.
constexpr std::size_t kLightSetupReps = 25;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string expect_digest;
  std::string run_dir = ".bench_build/run";
  std::string source_id = "unknown";
  std::string commit = "unknown";
};

const polaris::techlib::TechLibrary& lib() {
  static const auto library = polaris::techlib::TechLibrary::default_library();
  return library;
}

std::vector<circuits::Design> build_designs(
    const std::vector<std::string>& names, double scale = 1.0) {
  std::vector<circuits::Design> designs;
  designs.reserve(names.size());
  for (const auto& name : names) {
    designs.push_back(circuits::get_design(name, scale));
  }
  return designs;
}

double traces_per_s(std::uint64_t traces, double seconds) {
  return seconds > 0.0 ? static_cast<double>(traces) / seconds : 0.0;
}

/// The contract's end-to-end metrics, identical in name and unit on every
/// workload; what one "op" is differs per workload (README.md).
/// `peak_mb` is the peak RSS of the measured ops alone: the mark is reset
/// after set-up and read as soon as the ops end, before the output checks.
void add_end_to_end(Result& result, double setup_s, double peak_mb,
                    const std::vector<double>& op_walls,
                    const std::vector<double>& op_traces_per_s) {
  add(result.end_to_end, "setup_s", setup_s, "s");
  add(result.end_to_end, "peak_rss_mb", peak_mb, "MB");
  add(result.end_to_end, "op_p50_ms", 1e3 * median(op_walls), "ms");
  add(result.end_to_end, "traces_per_s", median(op_traces_per_s), "1/s");
  add(result.detail, "ops", static_cast<double>(op_walls.size()), "count");
}

/// Everything the traced run measures on every workload.
struct Ledger {
  double build_s = 0.0;
  LedgerTotals totals;
  KernelProbe kernel;
  CompileProbe compile;
  CodecProbe codec;
  double lookup_us = 0.0;
  double cache_hit_ratio = 0.0;
  double compile_calls = 0.0;  // compiles the library ran in one untraced op
  // Coverage: the timed layer seconds of each decomposed op (Replay::layer_s
  // plus timed masking calls) against the median wall of the workload's
  // untraced op, so time outside the timed layers stays unattributed.
  std::vector<double> layer_walls;
  double op_wall_s = 0.0;
  std::vector<double> traced_walls, untraced_walls;
};

/// Campaign compiles the library ran inside an obs window: every campaign
/// compiles through the existing `tvla.compile_us` histogram.
double compile_calls(const polaris::obs::Snapshot& delta) {
  const auto* compiles = delta.find_histogram("tvla.compile_us");
  return compiles == nullptr ? 0.0 : static_cast<double>(compiles->count);
}

void add_layers(Result& result, const Ledger& l) {
  auto& m = result.layers;
  const double multi_frac =
      l.compile.groups == 0 ? 0.0
                            : static_cast<double>(l.compile.multi_groups) /
                                  static_cast<double>(l.compile.groups);
  add(m, "circuits.build_s", l.build_s, "s");
  add(m, "sim.compile_s", l.compile.compile_s, "s");
  add(m, "sim.compile_calls", l.compile_calls, "count");
  add(m, "sim.eval_ns_per_gate_word", l.kernel.eval_ns_per_gate_word(), "ns");
  add(m, "sim.stimulus_ns_per_word", l.kernel.stimulus_ns_per_word(), "ns");
  add(m, "power.sample_ns_per_word", l.kernel.sample_ns_per_word(), "ns");
  add(m, "power.multi_group_frac", multi_frac, "ratio");
  add(m, "tvla.accumulate_ns_per_word", l.kernel.accumulate_ns_per_word(),
      "ns");
  add(m, "tvla.runner_setup_s", l.totals.setup_s, "s");
  add(m, "tvla.shard_s", l.totals.shard_s, "s");
  add(m, "tvla.shards", static_cast<double>(l.totals.shards_run), "count");
  add(m, "tvla.merge_s", l.totals.merge_s, "s");
  add(m, "tvla.finalize_s", l.totals.finalize_s, "s");
  add(m, "tvla.moments_bytes_per_shard", l.codec.bytes, "bytes");
  add(m, "tvla.moments_encode_us", l.codec.encode_us, "us");
  add(m, "tvla.moments_decode_us", l.codec.decode_us, "us");
  add(m, "engine.pool_utilization",
      l.totals.lane_seconds > 0.0 ? l.totals.shard_s / l.totals.lane_seconds
                                  : 0.0,
      "ratio");
  add(m, "engine.queue_wait_ms",
      l.totals.replays == 0
          ? 0.0
          : l.totals.queue_wait_ms_sum / static_cast<double>(l.totals.replays),
      "ms");
  add(m, "core.lookup_us", l.lookup_us, "us");
  add(m, "core.cache_hit_ratio", l.cache_hit_ratio, "ratio");
  const double layer_s = median(l.layer_walls);
  add(m, "ledger.coverage_pct",
      l.op_wall_s > 0.0 ? 100.0 * layer_s / l.op_wall_s : 0.0, "%");
  add(m, "ledger.unattributed_s", l.op_wall_s - layer_s, "s");
  const double untraced = median(l.untraced_walls);
  add(m, "obs.trace_overhead_pct",
      untraced > 0.0 ? 100.0 * (median(l.traced_walls) - untraced) / untraced
                     : 0.0,
      "%");
}

void check_digest(Result& result, const Digest& digest, const Args& args) {
  result.digest = digest.hex();
  result.digest_ok = !args.expect_digest.empty() &&
                     result.digest == args.expect_digest;
  if (!result.digest_ok) {
    result.fail("default-seed digest " + result.digest + " != stored " +
                (args.expect_digest.empty() ? "(none)" : args.expect_digest));
  }
}

const circuits::Design& named(const std::vector<circuits::Design>& designs,
                              const std::string& name) {
  for (const auto& d : designs) {
    if (d.name == name) return d;
  }
  throw std::runtime_error("no design named " + name);
}

const circuits::Design& largest_combinational(
    const std::vector<circuits::Design>& designs) {
  const circuits::Design* best = nullptr;
  for (const auto& d : designs) {
    if (has_dff(d.netlist)) continue;
    if (best == nullptr || d.netlist.gate_count() > best->netlist.gate_count()) {
      best = &d;
    }
  }
  if (best == nullptr) throw std::runtime_error("no combinational design");
  return *best;
}

/// Kernel + compile + codec probes shared by every traced run. `probe`
/// lists the designs the kernel probe runs on, `audited` every netlist
/// an op compiles.
void run_probes(Ledger& ledger,
                std::span<const polaris::netlist::Netlist* const> probe,
                std::span<const polaris::netlist::Netlist* const> audited,
                std::span<const tvla::CampaignMoments> shards, Result& result) {
  for (const auto* netlist : probe) probe_kernel(*netlist, lib(), ledger.kernel);
  ledger.compile = probe_compile(audited, lib());
  ledger.codec = probe_moments_codec(shards);
  if (!ledger.codec.round_trip_ok) result.fail("moments codec round trip");
}

std::vector<const polaris::netlist::Netlist*> netlists_of(
    std::span<const circuits::Design> designs) {
  std::vector<const polaris::netlist::Netlist*> out;
  for (const auto& d : designs) out.push_back(&d.netlist);
  return out;
}

/// Checks an op's reports against its designs; returns false on a failure.
bool check_reports(Result& result, std::span<const circuits::Design> designs,
                   const std::vector<tvla::LeakageReport>& reports,
                   const char* what) {
  bool ok = reports.size() == designs.size();
  for (std::size_t i = 0; ok && i < designs.size(); ++i) {
    ok = plausible(reports[i], designs[i].netlist.gate_count());
  }
  if (!ok) result.fail(std::string(what) + ": implausible report");
  return ok;
}

/// Per-design campaign cost (shard busy + merge + finalize) of a replay.
void add_campaign_detail(Result& result, const Replay& replay,
                         std::span<const circuits::Design> designs) {
  for (std::size_t i = 0; i < designs.size(); ++i) {
    add(result.detail, "tvla.campaign_s." + designs[i].name,
        replay.campaign_s[i], "s");
  }
}

// --- suite_audit ---------------------------------------------------------------

Result run_suite_audit(const Args& args) {
  Result result;
  const std::size_t threads = nproc();
  const auto names = circuits::evaluation_names();
  std::vector<circuits::Design> designs;
  const double setup_s =
      median_setup(kLightSetupReps, [&] { designs = build_designs(names); },
                   [&] { designs.clear(); });

  auto audit = [&](std::uint64_t seed, double& wall, std::uint64_t& traces) {
    const auto config = audit_config(kSuiteTraces, seed, threads);
    const std::uint64_t before = traces_run();
    const auto start = Clock::now();
    auto reports = core::audit_designs(designs, lib(), config);
    wall = seconds_since(start);
    traces = traces_run() - before;
    ++result.attempted;
    check_reports(result, designs, reports, "suite audit");
    return reports;
  };

  std::vector<double> walls, rates;
  double peak_mb = 0.0;
  Ledger ledger;
  ledger.build_s = setup_s;
  reset_peak_rss();
  if (!args.trace) {
    walls = measure_for(args.seconds, [&](std::size_t op) {
      double wall = 0.0;
      std::uint64_t traces = 0;
      (void)audit(mix(args.seed, op), wall, traces);
      rates.push_back(traces_per_s(traces, wall));
      return wall;
    });
    peak_mb = peak_rss_mb();
  } else {
    Replay last;
    for (std::size_t pair = 0; pair < 3; ++pair) {
      const std::uint64_t seed = mix(args.seed, pair);
      double wall = 0.0;
      std::uint64_t traces = 0;
      const auto config = audit_config(kSuiteTraces, seed, threads);
      const auto jobs = audit_jobs(designs, config);
      std::vector<tvla::LeakageReport> reports;
      // Alternate which side runs first so neither always gets warm caches.
      for (std::size_t side = 0; side < 2; ++side) {
        if ((side + pair) % 2 == 0) {
          const ObsWindow window;
          reports = audit(seed, wall, traces);
          ledger.compile_calls = compile_calls(window.delta());
          ledger.untraced_walls.push_back(wall);
          rates.push_back(traces_per_s(traces, wall));
        } else {
          const auto start = Clock::now();
          last = replay(jobs, lib(), threads);
          ledger.traced_walls.push_back(seconds_since(start));
          ledger.layer_walls.push_back(last.layer_s());
        }
      }
      ++result.attempted;
      for (std::size_t i = 0; i < designs.size(); ++i) {
        if (!same_report(last.reports[i], reports[i])) {
          result.fail("replay != audit_designs on " + designs[i].name);
        }
      }
    }
    peak_mb = peak_rss_mb();
    ledger.totals.add(last);
    ledger.op_wall_s = median(ledger.untraced_walls);
    const auto audited = netlists_of(designs);
    const polaris::netlist::Netlist* probe[] = {
        &largest_combinational(designs).netlist,
        &named(designs, "des3").netlist};
    run_probes(ledger, probe, audited, last.first_shards, result);
    ledger.lookup_us = probe_lookup_us(
        names, 1.0, audit_config(kSuiteTraces, args.seed, threads));
    add_layers(result, ledger);
    add_campaign_detail(result, last, designs);
    walls = ledger.untraced_walls;
  }

  Digest digest;
  double wall = 0.0;
  std::uint64_t traces = 0;
  for (const auto& report : audit(kDefaultSeed, wall, traces)) {
    digest.report(report);
  }
  check_digest(result, digest, args);

  add_end_to_end(result, setup_s, peak_mb, walls, rates);
  add(result.detail, "audit_traces_per_s", median(rates), "1/s");
  add(result.detail, "traces_per_design", static_cast<double>(kSuiteTraces),
      "count");
  add(result.detail, "repeated_input_share", 0.0, "ratio");
  add(result.detail, "repeated_netlist_share",
      walls.empty() ? 0.0 : 1.0 - 1.0 / static_cast<double>(walls.size()),
      "ratio");
  return result;
}

// --- distributed_audit ---------------------------------------------------------

/// Closes a connected socket on scope exit.
class Socket {
 public:
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

/// One install + one single-shard request per design over a raw worker
/// connection: what the coordinator pays per design before shards flow.
void probe_worker(const server::net::Endpoint& endpoint,
                  std::span<const circuits::Design> designs,
                  const core::PolarisConfig& config, Result& result,
                  double& install_s, double& shard_s) {
  const Socket socket(server::net::connect_endpoint(endpoint));
  auto roundtrip = [&](const std::vector<std::uint8_t>& request) {
    server::write_frame(socket.fd(), request);
    std::vector<std::uint8_t> payload;
    if (server::read_frame(socket.fd(), server::kDefaultMaxFrame, payload) !=
        server::FrameResult::kFrame) {
      throw std::runtime_error("worker closed the connection");
    }
    return server::decode_response(std::move(payload));
  };
  for (const auto& design : designs) {
    auto t0 = Clock::now();
    if (roundtrip(server::encode_design_request(design)).status !=
        server::Status::kOk) {
      result.fail("worker rejected install of " + design.name);
    }
    install_s += seconds_since(t0);
    server::ShardRequest request;
    request.fingerprint = core::design_fingerprint(design);
    request.config = config;
    request.shard_begin = 0;
    request.shard_end = 1;
    t0 = Clock::now();
    const auto response = roundtrip(server::encode_shard_request(request));
    shard_s += seconds_since(t0);
    if (response.status != server::Status::kOk ||
        server::decode_shard_reply(response.body).shards.size() != 1) {
      result.fail("worker shard request failed on " + design.name);
    }
  }
  shard_s /= static_cast<double>(designs.size());
}

Result run_distributed_audit(const Args& args) {
  Result result;
  const auto names = circuits::evaluation_names();
  std::vector<circuits::Design> designs;
  std::vector<std::unique_ptr<server::Worker>> fleet;
  std::unique_ptr<server::WorkerPool> distributed, local;
  auto stop_fleet = [&] {
    distributed.reset();
    local.reset();
    for (auto& worker : fleet) {
      worker->request_stop();
      worker->wait();
    }
    fleet.clear();
    designs.clear();
  };
  const double setup_s = median_setup(
      kLightSetupReps,
      [&] {
        designs = build_designs(names);
        server::WorkerPoolOptions options;
        options.local_threads = 1;
        for (std::size_t w = 0; w < kDistributedWorkers; ++w) {
          server::WorkerOptions worker_options;
          worker_options.listen = "tcp:127.0.0.1:0";
          worker_options.threads = 1;
          fleet.push_back(std::make_unique<server::Worker>(worker_options));
          fleet.back()->start();
          if (!options.workers.empty()) options.workers += ",";
          options.workers += server::net::to_string(fleet.back()->endpoint());
        }
        distributed = std::make_unique<server::WorkerPool>(options);
        server::WorkerPoolOptions local_options;
        local_options.local_threads = 1;
        local = std::make_unique<server::WorkerPool>(local_options);
      },
      stop_fleet);

  // One op: the same audit local-only and distributed, order alternating.
  struct Pair {
    double local_s = 0.0, distributed_s = 0.0, traces_per_s = 0.0;
    double compile_calls = 0.0;  // library compiles in the distributed audit
    std::vector<tvla::LeakageReport> reports;  // distributed
  };
  auto audit_pair = [&](std::uint64_t seed, std::size_t index) {
    const auto config = audit_config(kDistributedTraces, seed, 1);
    Pair out;
    std::vector<tvla::LeakageReport> local_reports;
    for (std::size_t k = 0; k < 2; ++k) {
      const bool remote = (k + index) % 2 == 0;
      const std::uint64_t before = traces_run();
      const ObsWindow window;
      const auto start = Clock::now();
      auto reports = (remote ? distributed : local)->audit(designs, lib(),
                                                           config);
      const double wall = seconds_since(start);
      if (remote) {
        out.compile_calls = compile_calls(window.delta());
        out.distributed_s = wall;
        out.traces_per_s = traces_per_s(traces_run() - before, wall);
        out.reports = std::move(reports);
      } else {
        out.local_s = wall;
        local_reports = std::move(reports);
      }
      ++result.attempted;
    }
    check_reports(result, designs, local_reports, "local audit");
    check_reports(result, designs, out.reports, "distributed audit");
    for (std::size_t i = 0; i < designs.size(); ++i) {
      if (!same_report(local_reports[i], out.reports[i])) {
        result.fail("distributed != local on " + designs[i].name);
      }
    }
    return out;
  };
  std::vector<double> walls, local_walls, rates;
  const auto totals_before = distributed->totals();
  auto pair = [&](std::uint64_t seed, std::size_t index) {
    Pair p = audit_pair(seed, index);
    walls.push_back(p.distributed_s);
    local_walls.push_back(p.local_s);
    rates.push_back(p.traces_per_s);
    return p;
  };

  Ledger ledger;
  double peak_mb = 0.0;
  reset_peak_rss();
  if (!args.trace) {
    (void)measure_for(args.seconds, [&](std::size_t op) {
      return pair(mix(args.seed, op), op).distributed_s;
    });
    peak_mb = peak_rss_mb();
  } else {
    // Untraced reference of the replay's shape: the library's own
    // scheduler on as many local lanes as the fleet has compute threads.
    const std::size_t lanes = 1 + kDistributedWorkers;
    Replay last;
    for (std::size_t op = 0; op < 3; ++op) {
      const std::uint64_t seed = mix(args.seed, op);
      const Pair distributed_op = pair(seed, op);
      const auto& reports = distributed_op.reports;
      ledger.compile_calls = distributed_op.compile_calls;
      const auto config = audit_config(kDistributedTraces, seed, lanes);
      auto start = Clock::now();
      (void)core::audit_designs(designs, lib(), config);
      ledger.untraced_walls.push_back(seconds_since(start));
      start = Clock::now();
      last = replay(audit_jobs(designs, config), lib(), lanes);
      ledger.traced_walls.push_back(seconds_since(start));
      ledger.layer_walls.push_back(last.layer_s());
      ++result.attempted;
      for (std::size_t i = 0; i < designs.size(); ++i) {
        if (!same_report(last.reports[i], reports[i])) {
          result.fail("replay != distributed audit on " + designs[i].name);
        }
      }
    }
    peak_mb = peak_rss_mb();
    ledger.totals.add(last);
    // The op is the distributed audit: wire, install and coordinator time
    // fall outside the replay's layers and stay unattributed.
    ledger.op_wall_s = median(walls);
    const auto totals = distributed->totals();
    const double audits = static_cast<double>(walls.size());
    std::size_t shards_per_audit = 0;
    for (const auto& design : designs) {
      shards_per_audit +=
          tvla::ShardRunner(design.netlist, lib(),
                            core::tvla_config_for(
                                audit_config(kDistributedTraces, 1, 1), design))
              .shard_count();
    }
    double install_s = 0.0, worker_shard_s = 0.0;
    probe_worker(fleet.front()->endpoint(), designs,
                 audit_config(kDistributedTraces, args.seed, 1), result,
                 install_s, worker_shard_s);
    add(result.detail, "remote.bytes",
        static_cast<double>(totals.bytes - totals_before.bytes) / audits,
        "bytes");
    add(result.detail, "remote.remote_shard_frac",
        static_cast<double>(totals.shards_out - totals_before.shards_out) /
            (audits * static_cast<double>(shards_per_audit)),
        "ratio");
    add(result.detail, "remote.resends",
        static_cast<double>(totals.resends - totals_before.resends), "count");
    add(result.detail, "remote.wire_overhead_s",
        median(walls) - median(ledger.untraced_walls), "s");
    add(result.detail, "worker.shard_s", worker_shard_s, "s");
    add(result.detail, "worker.install_s", install_s, "s");
    const auto build_start = Clock::now();
    (void)build_designs(names);
    ledger.build_s = seconds_since(build_start);
    const polaris::netlist::Netlist* probe[] = {
        &largest_combinational(designs).netlist,
        &named(designs, "des3").netlist};
    run_probes(ledger, probe, netlists_of(designs), last.first_shards, result);
    ledger.lookup_us = probe_lookup_us(
        names, 1.0, audit_config(kDistributedTraces, args.seed, 1));
    add_layers(result, ledger);
    add_campaign_detail(result, last, designs);
  }

  Digest digest;
  for (const auto& report : audit_pair(kDefaultSeed, 0).reports) {
    digest.report(report);
  }
  check_digest(result, digest, args);
  stop_fleet();

  add_end_to_end(result, setup_s, peak_mb, walls, rates);
  add(result.detail, "audit_traces_per_s", median(rates), "1/s");
  add(result.detail, "speedup_vs_local", median(local_walls) / median(walls),
      "x");
  add(result.detail, "local_p50_ms", 1e3 * median(local_walls), "ms");
  add(result.detail, "traces_per_design",
      static_cast<double>(kDistributedTraces), "count");
  add(result.detail, "repeated_input_share", 0.5, "ratio");
  return result;
}

// --- train_mask ------------------------------------------------------------------

/// Algorithm 2's ranking step, as Polaris::mask_design performs it: gates
/// with a positive score, descending, ties by id, top `mask_size`.
std::vector<polaris::netlist::GateId> rank_gates(
    const std::vector<double>& scores, std::size_t mask_size) {
  std::vector<polaris::netlist::GateId> ranked;
  for (polaris::netlist::GateId g = 0; g < scores.size(); ++g) {
    if (scores[g] > 0.0) ranked.push_back(g);
  }
  std::sort(ranked.begin(), ranked.end(), [&](auto a, auto b) {
    return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
  });
  if (ranked.size() > mask_size) ranked.resize(mask_size);
  return ranked;
}

struct Cycle {
  double mask_s = 0.0, verify_s = 0.0, wall = 0.0;
  double reduction_pct = 0.0;
  std::uint64_t traces = 0;
  std::string digest;
};

double reduction_pct(const std::vector<tvla::LeakageReport>& before,
                     const std::vector<tvla::LeakageReport>& after) {
  double b = 0.0, a = 0.0;
  for (const auto& r : before) b += r.total_abs_t();
  for (const auto& r : after) a += r.total_abs_t();
  return b > 0.0 ? 100.0 * (b - a) / b : 0.0;
}

Result run_train_mask(const Args& args) {
  Result result;
  const std::size_t threads = nproc();
  const auto names = circuits::evaluation_names();
  // Set-up trains once, as Table II does: the paper's training suite and
  // config (seed 1), so every run trains the same model. The workload seed
  // drives the audit stimulus, and through the leaky counts the mask sizes.
  std::vector<circuits::Design> designs;
  std::unique_ptr<core::Polaris> polaris;
  std::vector<core::TrainingSummary> summaries;
  std::vector<double> train_walls;
  std::uint64_t labelling = 0;
  double train_compiles = 0.0;
  const double setup_s = median_setup(
      3,
      [&] {
        designs = build_designs(names, kTrainMaskScale);
        const auto start = Clock::now();
        polaris = std::make_unique<core::Polaris>(
            paper_config(kDefaultSeed, threads));
        const ObsWindow window;
        summaries.push_back(
            polaris->train(circuits::training_suite(), lib()));
        const auto delta = window.delta();
        labelling = delta.counter_value("tvla.campaigns");
        train_compiles = compile_calls(delta);
        train_walls.push_back(seconds_since(start));
      },
      [&] {
        designs.clear();
        polaris.reset();
      });

  auto finish = [&](Cycle& cycle, const std::vector<tvla::LeakageReport>& before,
                    const std::vector<tvla::LeakageReport>& after,
                    const std::vector<std::vector<polaris::netlist::GateId>>&
                        selected) {
    check_reports(result, designs, before, "train_mask original audit");
    check_reports(result, designs, after, "train_mask masked audit");
    cycle.reduction_pct = reduction_pct(before, after);
    if (!(cycle.reduction_pct > 0.0)) result.fail("masking reduced no leakage");
    Digest digest;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      digest.report(before[i]);
      digest.u64(selected[i].size());
      for (const auto g : selected[i]) digest.u64(g);
      digest.report(after[i]);
    }
    cycle.digest = digest.hex();
  };

  // One op: audit the originals, mask each to its leaky count
  // (Algorithm 2), audit the masked netlists - the library's entry points.
  auto cycle_op = [&](std::uint64_t seed) {
    Cycle cycle;
    const auto config = paper_config(seed, threads);
    const std::uint64_t traces0 = traces_run();
    const auto start = Clock::now();
    const auto before = core::audit_designs(designs, lib(), config);
    cycle.verify_s = seconds_since(start);
    std::vector<std::vector<polaris::netlist::GateId>> selected;
    std::vector<circuits::Design> masked;
    auto t = Clock::now();
    for (std::size_t i = 0; i < designs.size(); ++i) {
      auto outcome = polaris->mask_design(designs[i], lib(),
                                          before[i].leaky_count());
      selected.push_back(std::move(outcome.selected));
      masked.push_back(
          {designs[i].name, std::move(outcome.masked), designs[i].roles});
    }
    cycle.mask_s = seconds_since(t);
    t = Clock::now();
    const auto after = core::audit_designs(masked, lib(), config);
    cycle.verify_s += seconds_since(t);
    cycle.wall = seconds_since(start);
    cycle.traces = traces_run() - traces0;
    ++result.attempted;
    finish(cycle, before, after, selected);
    return cycle;
  };

  std::vector<double> walls, rates, mask, verify, reduction;
  auto record = [&](const Cycle& c) {
    walls.push_back(c.wall);
    rates.push_back(traces_per_s(c.traces, c.wall));
    mask.push_back(c.mask_s);
    verify.push_back(c.verify_s);
    reduction.push_back(c.reduction_pct);
  };

  double peak_mb = 0.0;
  reset_peak_rss();
  if (!args.trace) {
    (void)measure_for(args.seconds, [&](std::size_t op) {
      record(cycle_op(mix(args.seed, op)));
      return walls.back();
    });
    peak_mb = peak_rss_mb();
  } else {
    Ledger ledger;
    std::vector<circuits::Design> masked;
    Replay before_replay, after_replay;
    double score_s = 0.0, rewrite_s = 0.0, rank_s = 0.0, gates_added = 0.0;
    for (std::size_t pair = 0; pair < 3; ++pair) {
      const std::uint64_t seed = mix(args.seed, pair);
      const ObsWindow window;
      const Cycle reference = cycle_op(seed);
      ledger.compile_calls = compile_calls(window.delta());
      record(reference);
      ledger.untraced_walls.push_back(reference.wall);

      // The same op decomposed into timed public calls.
      const auto config = paper_config(seed, threads);
      const auto start = Clock::now();
      LedgerTotals totals;
      before_replay = replay(audit_jobs(designs, config), lib(), threads);
      totals.add(before_replay);
      masked.clear();
      score_s = rewrite_s = rank_s = gates_added = 0.0;
      std::vector<std::vector<polaris::netlist::GateId>> selected;
      for (std::size_t i = 0; i < designs.size(); ++i) {
        auto t = Clock::now();
        const auto scores =
            polaris->score_gates(designs[i], core::InferenceMode::kModel);
        score_s += seconds_since(t);
        t = Clock::now();
        selected.push_back(
            rank_gates(scores, before_replay.reports[i].leaky_count()));
        rank_s += seconds_since(t);
        t = Clock::now();
        auto rewritten = polaris::masking::apply_masking(
            designs[i].netlist, selected.back(), polaris->config().scheme);
        rewrite_s += seconds_since(t);
        gates_added += static_cast<double>(rewritten.design.gate_count()) -
                       static_cast<double>(designs[i].netlist.gate_count());
        masked.push_back(
            {designs[i].name, std::move(rewritten.design), designs[i].roles});
      }
      after_replay = replay(audit_jobs(masked, config), lib(), threads);
      totals.add(after_replay);
      ledger.traced_walls.push_back(seconds_since(start));
      ++result.attempted;
      Cycle traced;
      finish(traced, before_replay.reports, after_replay.reports, selected);
      if (traced.digest != reference.digest) {
        result.fail("decomposed mask/verify != library flow");
      }
      ledger.totals = totals;
      ledger.layer_walls.push_back(totals.layer_s + score_s + rank_s +
                                   rewrite_s);
    }
    peak_mb = peak_rss_mb();
    ledger.op_wall_s = median(ledger.untraced_walls);
    // Graph features alone: the extraction score_gates runs per gate.
    double features_s = 0.0;
    for (const auto& design : designs) {
      const auto t = Clock::now();
      polaris::graph::FeatureExtractor extractor(
          design.netlist,
          polaris::graph::FeatureSpec{polaris->config().locality});
      for (polaris::netlist::GateId g = 0; g < design.netlist.gate_count();
           ++g) {
        if (polaris::netlist::is_maskable(design.netlist.gate(g).type)) {
          (void)extractor.extract(g);
        }
      }
      features_s += seconds_since(t);
    }
    const auto build_start = Clock::now();
    (void)build_designs(names, kTrainMaskScale);
    (void)circuits::training_suite();
    ledger.build_s = seconds_since(build_start);
    auto audited = netlists_of(designs);
    for (const auto& d : masked) audited.push_back(&d.netlist);
    const polaris::netlist::Netlist* probe[] = {
        &largest_combinational(masked).netlist, &named(masked, "des3").netlist};
    run_probes(ledger, probe, audited, after_replay.first_shards, result);
    ledger.lookup_us = probe_lookup_us(names, kTrainMaskScale,
                                       paper_config(args.seed, threads));
    add_layers(result, ledger);
    const auto& summary = summaries.back();
    add(result.detail, "core.dataset_s", summary.dataset_seconds, "s");
    add(result.detail, "core.labelling_campaigns",
        static_cast<double>(labelling), "count");
    add(result.detail, "sim.compile_calls.train", train_compiles, "count");
    add(result.detail, "ml.fit_s", summary.training_seconds, "s");
    add(result.detail, "xai.rules_s", summary.rules_seconds, "s");
    add(result.detail, "ml.score_s", score_s, "s");
    add(result.detail, "graph.features_s", features_s, "s");
    add(result.detail, "masking.rewrite_s", rewrite_s, "s");
    add(result.detail, "masking.gates_added", gates_added, "count");
    add(result.detail, "core.rank_s", rank_s, "s");
    for (std::size_t i = 0; i < designs.size(); ++i) {
      add(result.detail, "tvla.campaign_s." + designs[i].name,
          before_replay.campaign_s[i] + after_replay.campaign_s[i], "s");
    }
  }

  const Cycle reference = cycle_op(kDefaultSeed);
  Digest digest;
  digest.bytes(reference.digest.data(), reference.digest.size());
  check_digest(result, digest, args);

  add_end_to_end(result, setup_s, peak_mb, walls, rates);
  add(result.detail, "train_s", median(train_walls), "s");
  add(result.detail, "mask_s", median(mask), "s");
  add(result.detail, "verify_s", median(verify), "s");
  add(result.detail, "leakage_reduction_pct", median(reduction), "%");
  add(result.detail, "repeated_input_share", 0.0, "ratio");
  return result;
}

// --- serve_mix -------------------------------------------------------------------

// A small hot set (repeated, so cache hits) and mid-size designs for cold
// work. des3/md5 are left to the audit workloads: one cold des3 audit
// would dominate every session it lands in.
const std::vector<std::string> kHotDesigns = {"arbiter", "voter", "log2"};
const std::vector<std::string> kMidDesigns = {"sqrt", "square", "multiplier",
                                              "div", "sin"};
constexpr std::size_t kHotTraces = 16384;
constexpr std::size_t kColdTraces = 65536;
// Requests per session by kind: hot audits, cold audits, streams, masks.
constexpr std::size_t kSessionMix[4] = {4, 2, 2, 2};
// Sessions per client whose every reply is checked against offline.
constexpr std::size_t kCheckedSessions = 4;

enum Kind : std::uint8_t { kHot, kCold, kStream, kMask };
const char* kKindNames[] = {"hot", "cold", "stream", "mask"};

struct ServeRequest {
  Kind kind = kHot;
  std::string design;
  std::uint64_t seed = 0;       // TVLA seed (audits)
  std::size_t mask_size = 0;    // masks

  [[nodiscard]] std::string key() const {
    return std::string(kKindNames[kind]) + ":" + design + ":" +
           std::to_string(seed) + ":" + std::to_string(mask_size);
  }
  [[nodiscard]] server::AuditRequest audit() const {
    server::AuditRequest request;
    request.design = design;
    request.config =
        audit_config(kind == kHot ? kHotTraces : kColdTraces, seed, 0);
    if (kind == kStream) {
      request.config.tvla.budget.enabled = true;
      request.config.tvla.budget.min_traces = 2048;
    }
    return request;
  }
  [[nodiscard]] server::MaskRequest mask() const {
    server::MaskRequest request;
    request.design = design;
    request.mask_size = mask_size;
    return request;
  }
};

/// One client session: a fixed, seeded, shuffled request sequence.
std::vector<ServeRequest> session_requests(std::uint64_t seed,
                                           std::size_t client,
                                           std::size_t session) {
  polaris::util::Xoshiro256 rng(mix(seed, 1 + client, session));
  const std::uint64_t hot_seed = mix(seed, 0x407);
  std::vector<ServeRequest> requests;
  for (std::uint8_t kind = kHot; kind <= kMask; ++kind) {
    for (std::size_t n = 0; n < kSessionMix[kind]; ++n) {
      ServeRequest r;
      r.kind = static_cast<Kind>(kind);
      if (r.kind == kHot) {
        r.design = kHotDesigns[rng() % kHotDesigns.size()];
        r.seed = hot_seed;
      } else {
        r.design = kMidDesigns[rng() % kMidDesigns.size()];
        r.seed = r.kind == kMask ? 0 : rng();
        r.mask_size = r.kind == kMask ? 20 + rng() % 61 : 0;
      }
      requests.push_back(std::move(r));
    }
  }
  for (std::size_t i = requests.size(); i > 1; --i) {
    std::swap(requests[i - 1], requests[rng() % i]);
  }
  return requests;
}

struct Served {
  ServeRequest request;
  double latency_s = 0.0;
  bool cache_hit = false;
  bool ok = false;
  std::vector<std::uint8_t> body;  // normalized reply bytes (checked only)
};

/// Sends one request. A checked reply is kept only as its bytes,
/// re-encoded with cache_hit cleared (and a mask's compute time zeroed) so
/// equal results give equal bytes; every other reply is dropped at once.
Served send(server::Client& client, const ServeRequest& request,
            bool keep) {
  Served out;
  out.request = request;
  const auto start = Clock::now();
  if (request.kind == kMask) {
    auto reply = client.mask(request.mask());
    out.latency_s = seconds_since(start);
    out.cache_hit = reply.cache_hit;
    if (keep) {
      reply.cache_hit = false;
      reply.seconds = 0.0;
      out.body = server::encode_mask_reply(reply);
    }
  } else {
    auto reply = request.kind == kStream
                     ? client.audit_stream(request.audit(), [](const auto&) {})
                     : client.audit(request.audit());
    out.latency_s = seconds_since(start);
    out.cache_hit = reply.cache_hit;
    if (keep) {
      reply.cache_hit = false;
      out.body = server::encode_audit_reply(reply);
    }
  }
  out.ok = true;
  return out;
}

Result run_serve_mix(const Args& args) {
  Result result;
  const std::size_t threads = nproc();
  std::filesystem::create_directories(args.run_dir);
  const std::string bundle = args.run_dir + "/serve.plb";
  const std::string socket = args.run_dir + "/serve.sock";
  std::vector<std::string> served_names = kHotDesigns;
  served_names.insert(served_names.end(), kMidDesigns.begin(),
                      kMidDesigns.end());
  std::vector<circuits::Design> designs;
  std::unique_ptr<server::Server> daemon;
  auto stop_daemon = [&] {
    if (!daemon) return;
    daemon->request_stop();
    daemon->wait();
    daemon.reset();
    designs.clear();
  };
  double build_s = 0.0;
  // Set-up: the served designs, a bundle trained with the paper defaults,
  // and a daemon serving it.
  const double setup_s = median_setup(
      3,
      [&] {
        auto t = Clock::now();
        designs = build_designs(served_names);
        build_s = seconds_since(t);
        core::Polaris polaris(paper_config(kDefaultSeed, threads));
        (void)polaris.train(circuits::training_suite(), lib());
        polaris.save_bundle(bundle);
        server::ServerOptions options;
        options.socket_path = socket;
        options.bundle_path = bundle;
        options.threads = threads;
        daemon = std::make_unique<server::Server>(options);
        daemon->start();
      },
      stop_daemon);

  // Closed loop: each client sends its next request only after the reply.
  const std::size_t clients = threads;
  std::vector<std::vector<Served>> served(clients);
  std::vector<std::vector<double>> sessions(clients);
  std::vector<std::string> errors(clients);
  reset_peak_rss();
  const ObsWindow window;
  const std::uint64_t traces0 = traces_run();
  const auto start = Clock::now();
  {
    std::vector<std::thread> loop;
    for (std::size_t c = 0; c < clients; ++c) {
      loop.emplace_back([&, c] {
        try {
          server::Client client(socket, 120000);
          for (std::size_t k = 0;; ++k) {
            if (k > 0 && seconds_since(start) + median(sessions[c]) >
                             args.seconds) {
              break;
            }
            const auto session_start = Clock::now();
            for (const auto& request : session_requests(args.seed, c, k)) {
              try {
                served[c].push_back(
                    send(client, request, k < kCheckedSessions));
              } catch (const std::exception& error) {
                Served failed;
                failed.request = request;
                served[c].push_back(std::move(failed));
                if (errors[c].empty()) errors[c] = error.what();
              }
            }
            sessions[c].push_back(seconds_since(session_start));
          }
        } catch (const std::exception& error) {
          if (errors[c].empty()) errors[c] = error.what();
        }
      });
    }
    for (auto& thread : loop) thread.join();
  }
  const double measured_s = seconds_since(start);
  const double peak_mb = peak_rss_mb();
  const std::uint64_t traces = traces_run() - traces0;
  const auto delta = window.delta();
  for (const auto& error : errors) {
    if (!error.empty()) result.fail("client: " + error);
  }

  // Latency by kind; repeated-input share from the request stream itself.
  std::vector<double> all_sessions, cold, hit, stream, mask, audit_any;
  std::set<std::string> seen;
  std::size_t requests = 0, repeated = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    all_sessions.insert(all_sessions.end(), sessions[c].begin(),
                        sessions[c].end());
    for (const auto& s : served[c]) {
      ++requests;
      if (!seen.insert(s.request.key()).second) ++repeated;
      if (!s.ok) {
        result.fail("request " + s.request.key() + " failed");
        continue;
      }
      const double ms = 1e3 * s.latency_s;
      if (s.request.kind != kMask) audit_any.push_back(ms);
      if (s.cache_hit) {
        hit.push_back(ms);
      } else if (s.request.kind == kCold) {
        cold.push_back(ms);
      } else if (s.request.kind == kStream) {
        stream.push_back(ms);
      } else if (s.request.kind == kMask) {
        mask.push_back(ms);
      }
    }
  }
  result.attempted += requests;

  // Offline reference for every checked reply: one scheduler drain for all
  // audits (core::submit_audits, the daemon's own seam), mask_design for
  // masks on the same bundle.
  std::map<std::string, const Served*> checked;
  std::size_t replays = 0;
  for (const auto& list : served) {
    for (const auto& s : list) {
      if (!s.ok || s.body.empty()) continue;
      const auto [it, first] = checked.emplace(s.request.key(), &s);
      if (first) continue;
      ++replays;
      if (it->second->body != s.body) {
        result.fail("repeated request answered differently: " +
                    s.request.key());
      }
    }
  }
  std::vector<const Served*> audits, masks;
  for (const auto& [key, s] : checked) {
    (s->request.kind == kMask ? masks : audits).push_back(s);
  }
  std::vector<circuits::Design> audit_designs;
  for (const auto* s : audits) {
    audit_designs.push_back(circuits::load_design(s->request.design));
  }
  const auto offline_polaris = core::Polaris::load_bundle(bundle);
  auto compare = [&](const Served& s, const std::vector<std::uint8_t>& expect) {
    if (s.body != expect) result.fail("served != offline for " + s.request.key());
  };
  auto audit_body = [&](std::size_t i, tvla::LeakageReport report) {
    server::AuditReply reply;
    reply.design_name = audit_designs[i].name;
    reply.gate_count = audit_designs[i].netlist.gate_count();
    reply.traces = audits[i]->request.audit().config.tvla.traces;
    reply.traces_used = report.traces_used();
    reply.early_stopped = report.early_stopped();
    reply.report = std::move(report);
    return server::encode_audit_reply(reply);
  };
  auto offline = [&](std::vector<tvla::LeakageReport>& reports) {
    const auto t0 = Clock::now();
    polaris::engine::Scheduler scheduler(threads);
    std::vector<std::future<tvla::LeakageReport>> pending;
    for (std::size_t i = 0; i < audits.size(); ++i) {
      auto futures = core::submit_audits(scheduler, {&audit_designs[i], 1},
                                         lib(), audits[i]->request.audit().config);
      pending.push_back(std::move(futures.front()));
    }
    scheduler.drain();
    reports.clear();
    for (auto& f : pending) reports.push_back(f.get());
    std::vector<server::MaskReply> mask_replies;
    for (const auto* s : masks) {
      const auto design = circuits::load_design(s->request.design);
      auto outcome = offline_polaris.mask_design(design, lib(),
                                                 s->request.mask_size);
      server::MaskReply reply;
      reply.design_name = design.name;
      reply.gate_count = design.netlist.gate_count();
      reply.masked_gate_count = outcome.masked.gate_count();
      reply.selected = std::move(outcome.selected);
      reply.verilog = polaris::netlist::to_verilog(outcome.masked);
      mask_replies.push_back(std::move(reply));
    }
    const double wall = seconds_since(t0);
    for (std::size_t i = 0; i < masks.size(); ++i) {
      compare(*masks[i], server::encode_mask_reply(mask_replies[i]));
    }
    return wall;
  };
  std::vector<tvla::LeakageReport> offline_reports;
  Ledger ledger;
  ledger.untraced_walls.push_back(offline(offline_reports));
  for (std::size_t i = 0; i < audits.size(); ++i) {
    compare(*audits[i], audit_body(i, offline_reports[i]));
  }
  result.attempted += checked.size();

  if (args.trace) {
    // The offline reference again, decomposed: ShardRunner replay for the
    // audits, score/rank/rewrite for the masks.
    const auto t0 = Clock::now();
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < audits.size(); ++i) {
      jobs.push_back({&audit_designs[i],
                      core::tvla_config_for(audits[i]->request.audit().config,
                                            audit_designs[i])});
    }
    const Replay r = replay(jobs, lib(), threads);
    double score_s = 0.0, rank_s = 0.0, rewrite_s = 0.0, gates_added = 0.0;
    for (const auto* s : masks) {
      const auto design = circuits::load_design(s->request.design);
      auto t = Clock::now();
      const auto scores =
          offline_polaris.score_gates(design, core::InferenceMode::kModel);
      score_s += seconds_since(t);
      t = Clock::now();
      const auto ranked = rank_gates(scores, s->request.mask_size);
      rank_s += seconds_since(t);
      t = Clock::now();
      const auto rewritten = polaris::masking::apply_masking(
          design.netlist, ranked, offline_polaris.config().scheme);
      rewrite_s += seconds_since(t);
      gates_added += static_cast<double>(rewritten.design.gate_count()) -
                     static_cast<double>(design.netlist.gate_count());
      if (ranked != server::decode_mask_reply(s->body).selected) {
        result.fail("decomposed mask != served for " + s->request.key());
      }
    }
    ledger.traced_walls.push_back(seconds_since(t0));
    // The op the ledger decomposes is the offline reference (the checked
    // requests' compute without the daemon); the daemon's own share is
    // server.overhead_ms.
    ledger.op_wall_s = median(ledger.untraced_walls);
    ledger.layer_walls.push_back(r.layer_s() + score_s + rank_s + rewrite_s);
    ledger.totals.add(r);
    for (std::size_t i = 0; i < audits.size(); ++i) {
      if (!same_report(r.reports[i], offline_reports[i])) {
        result.fail("replay != submit_audits for " + audits[i]->request.key());
      }
    }
    ledger.build_s = build_s;
    ledger.compile_calls =
        compile_calls(delta) / static_cast<double>(all_sessions.size());
    const std::uint64_t hits = delta.counter_value("cache.hits");
    const std::uint64_t misses = delta.counter_value("cache.misses");
    ledger.cache_hit_ratio =
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses);
    const auto des3 = circuits::get_design("des3");
    const polaris::netlist::Netlist* probe[] = {
        &largest_combinational(designs).netlist, &des3.netlist};
    run_probes(ledger, probe, netlists_of(designs), r.first_shards, result);
    ledger.lookup_us = probe_lookup_us(
        served_names, 1.0, ServeRequest{kHot, "", 1, 0}.audit().config);
    add_layers(result, ledger);

    auto service_p50_ms = [&](const char* name) {
      const auto* h = delta.find_histogram(name);
      return h == nullptr ? 0.0 : h->percentile(0.5) / 1e3;
    };
    add(result.detail, "server.service_p50_ms.audit",
        service_p50_ms("server.audit_us"), "ms");
    add(result.detail, "server.service_p50_ms.audit_stream",
        service_p50_ms("server.audit_stream_us"), "ms");
    add(result.detail, "server.service_p50_ms.mask",
        service_p50_ms("server.mask_us"), "ms");
    // Client-observed audit latency beyond the daemon's own service time.
    add(result.detail, "server.overhead_ms",
        median(audit_any) - service_p50_ms("server.audit_us"), "ms");
    add(result.detail, "server.request_errors",
        static_cast<double>(delta.counter_value("server.request_errors")),
        "count");
    double encode_us = 0.0, decode_us = 0.0;
    for (const auto* s : audits) {
      const auto reply = server::decode_audit_reply(s->body);
      auto t = Clock::now();
      const auto body = server::encode_audit_reply(reply);
      encode_us += seconds_since(t) * 1e6;
      t = Clock::now();
      (void)server::decode_audit_reply(body);
      decode_us += seconds_since(t) * 1e6;
    }
    const double n = std::max<double>(1.0, static_cast<double>(audits.size()));
    add(result.detail, "server.reply_encode_us", encode_us / n, "us");
    add(result.detail, "server.reply_decode_us", decode_us / n, "us");
    add(result.detail, "tvla.checkpoint_s", r.checkpoint_s, "s");
    const auto* shard_us = delta.find_histogram("sched.shard_us");
    add(result.detail, "engine.shards_run",
        shard_us == nullptr ? 0.0 : static_cast<double>(shard_us->count),
        "count");
    add(result.detail, "engine.shards_cancelled",
        static_cast<double>(delta.counter_value("sched.shards_cancelled")),
        "count");
    // Shards the replayed results needed (merged before an early stop) over
    // shards the replay ran.
    add(result.detail, "engine.shard_useful_ratio",
        r.shards_run == 0 ? 0.0
                          : static_cast<double>(r.shards_merged) /
                                static_cast<double>(r.shards_run),
        "ratio");
    const auto load = Clock::now();
    (void)core::Polaris::load_bundle(bundle);
    add(result.detail, "serialize.bundle_load_s", seconds_since(load), "s");
    add(result.detail, "ml.score_s", score_s, "s");
    add(result.detail, "masking.rewrite_s", rewrite_s, "s");
    add(result.detail, "masking.gates_added", gates_added, "count");
  }

  // The default-seed session through the daemon, digested.
  {
    server::Client client(socket, 120000);
    Digest digest;
    for (const auto& request : session_requests(kDefaultSeed, 0, 0)) {
      ++result.attempted;
      digest.body(send(client, request, true).body);
    }
    check_digest(result, digest, args);
  }
  stop_daemon();
  std::filesystem::remove(bundle);

  std::vector<double> rates = {traces_per_s(traces, measured_s)};
  add_end_to_end(result, setup_s, peak_mb, all_sessions, rates);
  add(result.detail, "served_rps",
      static_cast<double>(requests) / measured_s, "1/s");
  add(result.detail, "served_audit_p50_ms", median(cold), "ms");
  add(result.detail, "served_audit_p95_ms", percentile(cold, 0.95), "ms");
  add(result.detail, "served_hit_p50_ms", median(hit), "ms");
  add(result.detail, "served_stream_p50_ms", median(stream), "ms");
  add(result.detail, "served_mask_p50_ms", median(mask), "ms");
  add(result.detail, "requests", static_cast<double>(requests), "count");
  add(result.detail, "cache_hits", static_cast<double>(hit.size()), "count");
  add(result.detail, "checked_replies",
      static_cast<double>(checked.size() + replays), "count");
  add(result.detail, "repeated_input_share",
      requests == 0 ? 0.0
                    : static_cast<double>(repeated) /
                          static_cast<double>(requests),
      "ratio");
  add(result.detail, "clients", static_cast<double>(clients), "count");
  return result;
}

// --- driver ---------------------------------------------------------------------

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--expect-digest") args.expect_digest = value;
    else if (flag == "--run-dir") args.run_dir = value;
    else if (flag == "--source-id") args.source_id = value;
    else if (flag == "--commit") args.commit = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::map<std::string, std::function<Result(const Args&)>> workloads = {
      {"suite_audit", run_suite_audit},
      {"train_mask", run_train_mask},
      {"serve_mix", run_serve_mix},
      {"distributed_audit", run_distributed_audit},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  const Result result = it->second(args);
  for (const auto& failure : result.failures) {
    std::cerr << "perfbench: FAILED: " << failure << "\n";
  }
  std::cout << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
            << ",\"trace\":" << (args.trace ? 1 : 0)
            << ",\"host\":" << host_json(args.source_id, args.commit)
            << ",\"digest\":\"" << result.digest << "\",\"error_rate\":"
            << json_number(static_cast<double>(result.failed) /
                           static_cast<double>(std::max<std::uint64_t>(
                               1, result.attempted)))
            << ",\"detail\":" << json_metrics(result.detail) << "}\n";
  std::cout << "{\"correct\":" << (result.correct() ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":"
            << json_metrics(args.trace ? result.layers : result.end_to_end)
            << "}" << std::endl;
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
