// The layer ledger, measured from outside the library: every number here
// comes from timing calls into public entry points (tvla::ShardRunner,
// sim::compile, sim::Simulator, power::SamplePlan, tvla::write_moments /
// read_moments, core::design_fingerprint, core::ResultCache). Nothing is
// instrumented inside src/.
#pragma once

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/suite.hpp"
#include "common.hpp"
#include "core/result_cache.hpp"
#include "power/power_model.hpp"
#include "power/sample_plan.hpp"
#include "serialize/archive.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"
#include "techlib/techlib.hpp"
#include "tvla/moments_io.hpp"
#include "tvla/tvla.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace pl = polaris;

/// One campaign of a replay: a design and the exact TVLA config the
/// library would run it with (core::tvla_config_for).
struct Job {
  const pl::circuits::Design* design;
  pl::tvla::TvlaConfig config;
};

/// A from-outside replay of a batch of fixed-vs-random campaigns: one
/// ShardRunner per campaign, every shard in one LPT-ordered queue drained
/// by `lanes` threads, ascending incremental merge with early-stop
/// checkpoints, then finalize - the same contract the scheduler keeps, so
/// the reports must be bit-identical to core::audit_designs.
struct Replay {
  std::vector<pl::tvla::LeakageReport> reports;
  std::vector<double> campaign_s;  // per job: shard busy + merge + checkpoint
  std::vector<pl::tvla::CampaignMoments> first_shards;  // shard 0 per job
  double setup_s = 0.0;      // ShardRunner construction (compile + plans)
  double drain_s = 0.0;      // wall of the parallel shard drain
  double finalize_s = 0.0;   // Welch finalize, all campaigns
  double shard_s = 0.0;      // summed shard busy time over lanes
  double merge_s = 0.0;      // summed ascending-merge time
  double checkpoint_s = 0.0; // summed early-stop evaluation time
  double queue_wait_ms = 0.0;  // mean drain-start -> first-shard-start
  std::size_t lanes = 1;
  std::size_t shards_run = 0;
  std::size_t shards_merged = 0;

  /// Seconds the timed layer calls account for, as wall time on `lanes`
  /// lanes: the sequential set-up and finalize plus the lanes' summed shard,
  /// merge and checkpoint time spread over the lanes. Idle lane time is not
  /// layer time.
  [[nodiscard]] double layer_s() const {
    return setup_s + finalize_s +
           (shard_s + merge_s + checkpoint_s) / static_cast<double>(lanes);
  }
};

inline Replay replay(std::span<const Job> jobs,
                     const pl::techlib::TechLibrary& lib, std::size_t lanes) {
  Replay out;
  out.lanes = lanes;
  const auto setup_start = Clock::now();
  std::vector<std::unique_ptr<pl::tvla::ShardRunner>> runners;
  for (const Job& job : jobs) {
    runners.push_back(std::make_unique<pl::tvla::ShardRunner>(
        job.design->netlist, lib, job.config));
  }
  out.setup_s = seconds_since(setup_start);

  struct Campaign {
    std::mutex mutex;
    std::vector<std::unique_ptr<pl::tvla::CampaignMoments>> done;
    pl::tvla::CampaignMoments total;
    std::size_t next = 0;        // shards merged so far (ascending prefix)
    std::size_t checkpoint = 0;  // index into checkpoint_shards()
    bool stopped = false;
    double busy = 0.0, merge = 0.0, checkpoint_s = 0.0;
    double first_start = -1.0;
    std::size_t run = 0;
  };
  std::vector<std::unique_ptr<Campaign>> campaigns;
  std::vector<std::pair<std::size_t, std::size_t>> tasks;  // (job, shard)
  for (std::size_t j = 0; j < runners.size(); ++j) {
    auto campaign = std::make_unique<Campaign>();
    campaign->done.resize(runners[j]->shard_count());
    campaign->total = runners[j]->empty_moments();
    campaigns.push_back(std::move(campaign));
    for (std::size_t s = 0; s < runners[j]->shard_count(); ++s) {
      tasks.emplace_back(j, s);
    }
  }
  out.first_shards.resize(runners.size());
  // Heaviest campaign first, shards ascending: the scheduler's LPT order.
  std::stable_sort(tasks.begin(), tasks.end(), [&](auto a, auto b) {
    return runners[a.first]->cost_weight() > runners[b.first]->cost_weight();
  });

  std::atomic<std::size_t> next_task{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto drain_start = Clock::now();
  auto lane = [&] {
    try {
      for (std::size_t i = next_task.fetch_add(1); i < tasks.size();
           i = next_task.fetch_add(1)) {
        const auto [j, s] = tasks[i];
        Campaign& c = *campaigns[j];
        const double started = seconds_since(drain_start);
        {
          const std::lock_guard<std::mutex> lock(c.mutex);
          if (c.first_start < 0.0) c.first_start = started;
          if (c.stopped) continue;  // decided: later shards are never merged
        }
        const auto t0 = Clock::now();
        auto moments = std::make_unique<pl::tvla::CampaignMoments>(
            runners[j]->run_shard(s));
        const double busy = seconds_since(t0);
        const std::lock_guard<std::mutex> lock(c.mutex);
        c.busy += busy;
        ++c.run;
        if (s == 0) out.first_shards[j] = *moments;
        c.done[s] = std::move(moments);
        const auto& checkpoints = runners[j]->checkpoint_shards();
        while (!c.stopped && c.next < c.done.size() && c.done[c.next]) {
          const auto m0 = Clock::now();
          c.total.merge(*c.done[c.next]);
          c.done[c.next].reset();
          ++c.next;
          c.merge += seconds_since(m0);
          if (c.checkpoint < checkpoints.size() &&
              checkpoints[c.checkpoint] == c.next) {
            ++c.checkpoint;
            const auto e0 = Clock::now();
            c.stopped = runners[j]->evaluate_checkpoint(c.total, c.next);
            c.checkpoint_s += seconds_since(e0);
          }
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < lanes; ++t) threads.emplace_back(lane);
  for (auto& thread : threads) thread.join();
  out.drain_s = seconds_since(drain_start);
  if (error) std::rethrow_exception(error);

  double wait_sum = 0.0;
  for (std::size_t j = 0; j < runners.size(); ++j) {
    Campaign& c = *campaigns[j];
    const auto f0 = Clock::now();
    out.reports.push_back(runners[j]->finalize(c.total));
    const double finalize = seconds_since(f0);
    out.finalize_s += finalize;
    out.shard_s += c.busy;
    out.merge_s += c.merge;
    out.checkpoint_s += c.checkpoint_s;
    out.shards_run += c.run;
    out.shards_merged += c.next;
    out.campaign_s.push_back(c.busy + c.merge + c.checkpoint_s + finalize);
    wait_sum += std::max(0.0, c.first_start);
  }
  out.queue_wait_ms =
      runners.empty() ? 0.0
                      : 1e3 * wait_sum / static_cast<double>(runners.size());
  return out;
}

/// Jobs for auditing `designs` under one PolarisConfig, exactly as
/// core::submit_audits builds them.
inline std::vector<Job> audit_jobs(
    std::span<const pl::circuits::Design> designs,
    const pl::core::PolarisConfig& config) {
  std::vector<Job> jobs;
  for (const auto& design : designs) {
    jobs.push_back({&design, pl::core::tvla_config_for(config, design)});
  }
  return jobs;
}

/// Sums of several replays (an op may replay more than one batch).
struct LedgerTotals {
  double layer_s = 0.0, setup_s = 0.0, finalize_s = 0.0;
  double shard_s = 0.0, merge_s = 0.0;
  double lane_seconds = 0.0;  // drain wall x lanes
  double queue_wait_ms_sum = 0.0;
  std::size_t replays = 0, shards_run = 0;

  void add(const Replay& r) {
    layer_s += r.layer_s();
    setup_s += r.setup_s;
    finalize_s += r.finalize_s;
    shard_s += r.shard_s;
    merge_s += r.merge_s;
    lane_seconds += r.drain_s * static_cast<double>(r.lanes);
    queue_wait_ms_sum += r.queue_wait_ms;
    shards_run += r.shards_run;
    ++replays;
  }
};

// --- kernel probes -----------------------------------------------------------

/// The cheapest possible moments sink: folds every value into a sum, so
/// the readout loop cannot be optimized away. Sampling into it times the
/// toggle readout alone; CampaignMoments minus it is the accumulate cost.
struct CountingSink {
  std::uint64_t lanes = 0, ones = 0;
  double energy = 0.0;
  void add_lane_counts(std::uint64_t f, std::uint64_t r) noexcept {
    lanes += f + r;
  }
  void add_single_ones(std::size_t g, std::uint64_t f,
                       std::uint64_t r) noexcept {
    ones += f + r + g;
  }
  void add_multi_sample(std::size_t, bool, double v) noexcept { energy += v; }
};

// The library compiles its readout with hardware popcnt (target_clones in
// tvla.cpp); the probes use the same clones so they time the same code.
#if defined(__x86_64__) && defined(__GNUC__)
#define PERFBENCH_POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#else
#define PERFBENCH_POPCNT_CLONES
#endif

PERFBENCH_POPCNT_CLONES inline void sample_counting(
    const pl::power::SamplePlan& plan, const std::uint64_t* toggles,
    std::size_t words, const std::uint64_t* masks, double* sums,
    CountingSink& sink) {
  plan.sample(toggles, words, words, masks, sums, sink);
}

PERFBENCH_POPCNT_CLONES inline void sample_moments(
    const pl::power::SamplePlan& plan, const std::uint64_t* toggles,
    std::size_t words, const std::uint64_t* masks, double* sums,
    pl::tvla::CampaignMoments& sink) {
  plan.sample(toggles, words, words, masks, sums, sink);
}

struct KernelProbe {
  double stimulus_ns = 0.0, stimulus_words = 0.0;
  double eval_ns = 0.0, eval_gate_words = 0.0;
  double sample_ns = 0.0, accumulate_ns = 0.0, sample_words = 0.0;

  [[nodiscard]] double stimulus_ns_per_word() const {
    return stimulus_ns / stimulus_words;
  }
  [[nodiscard]] double eval_ns_per_gate_word() const {
    return eval_ns / eval_gate_words;
  }
  [[nodiscard]] double sample_ns_per_word() const {
    return sample_ns / sample_words;
  }
  [[nodiscard]] double accumulate_ns_per_word() const {
    return accumulate_ns / sample_words;
  }
};

inline bool has_dff(const pl::netlist::Netlist& netlist) {
  for (const auto& gate : netlist.gates()) {
    if (gate.type == pl::netlist::CellType::kDff) return true;
  }
  return false;
}

/// Times `body` over enough repetitions to fill ~`target_s`; returns
/// (ns per repetition, repetitions).
template <class Body>
double ns_per_rep(double target_s, Body&& body) {
  std::size_t reps = 0;
  const auto start = Clock::now();
  do {
    body();
    ++reps;
  } while (reps < 4 || seconds_since(start) < target_s);
  return seconds_since(start) * 1e9 / static_cast<double>(reps);
}

/// Per-word costs of one K-word lane block on `netlist`, K as a campaign
/// would pick it (1 on sequential designs): stimulus writes
/// (Simulator::set_input_word), the combinational wave (Simulator::eval),
/// toggle readout (SamplePlan::sample into CountingSink) and moment
/// accumulation (into CampaignMoments, minus the readout).
inline void probe_kernel(const pl::netlist::Netlist& netlist,
                         const pl::techlib::TechLibrary& lib,
                         KernelProbe& probe) {
  const auto compiled = pl::sim::compile(netlist);
  const std::size_t words =
      has_dff(netlist) ? 1 : pl::sim::default_lane_words();
  pl::sim::Simulator sim(compiled, 0x5eed, words);
  pl::util::Xoshiro256 rng(0x9e3779b9);
  const std::size_t inputs = netlist.primary_inputs().size();
  const double w = static_cast<double>(words);

  probe.stimulus_ns += ns_per_rep(0.02, [&] {
    for (std::size_t i = 0; i < inputs; ++i) {
      for (std::size_t k = 0; k < words; ++k) sim.set_input_word(i, k, rng());
    }
  });
  probe.stimulus_words += static_cast<double>(inputs) * w;
  sim.eval(false);
  for (std::size_t i = 0; i < inputs; ++i) {
    for (std::size_t k = 0; k < words; ++k) sim.set_input_word(i, k, rng());
  }
  probe.eval_ns += ns_per_rep(0.03, [&] { sim.eval(); });
  probe.eval_gate_words += static_cast<double>(netlist.gate_count()) * w;

  const pl::power::PowerModel power(netlist, lib);
  const pl::power::SamplePlan plan(*compiled, power);
  std::vector<std::uint64_t> masks(words);
  for (auto& mask : masks) mask = rng();
  std::vector<double> sums(plan.multi_group_count() * words * 64, 0.0);
  CountingSink counting;
  pl::tvla::CampaignMoments moments(plan.group_count(),
                                    plan.multi_group_count());
  const double readout = ns_per_rep(0.03, [&] {
    sample_counting(plan, sim.toggle_words(), words, masks.data(),
                    sums.data(), counting);
  });
  const double with_moments = ns_per_rep(0.03, [&] {
    sample_moments(plan, sim.toggle_words(), words, masks.data(), sums.data(),
                   moments);
  });
  probe.sample_ns += readout;
  probe.accumulate_ns += with_moments - readout;
  probe.sample_words += w;
}

/// sim::compile over every netlist an op audits, plus the group layout
/// the sampling plan derives from it.
struct CompileProbe {
  double compile_s = 0.0;
  std::size_t groups = 0, multi_groups = 0;
};

inline CompileProbe probe_compile(
    std::span<const pl::netlist::Netlist* const> netlists,
    const pl::techlib::TechLibrary& lib) {
  CompileProbe probe;
  for (const auto* netlist : netlists) {
    const auto t0 = Clock::now();
    const auto compiled = pl::sim::compile(*netlist);
    probe.compile_s += seconds_since(t0);
    const pl::power::PowerModel power(*netlist, lib);
    const pl::power::SamplePlan plan(*compiled, power);
    probe.groups += plan.group_count();
    probe.multi_groups += plan.multi_group_count();
  }
  return probe;
}

/// tvla::write_moments / read_moments over one shard's moments per
/// campaign: the wire unit of the distributed backend.
struct CodecProbe {
  double bytes = 0.0, encode_us = 0.0, decode_us = 0.0;
  std::size_t shards = 0;
  bool round_trip_ok = true;
};

inline CodecProbe probe_moments_codec(
    std::span<const pl::tvla::CampaignMoments> shards) {
  CodecProbe probe;
  for (const auto& moments : shards) {
    const auto e0 = Clock::now();
    pl::serialize::Writer writer;
    pl::tvla::write_moments(writer, moments);
    auto bytes = writer.finish();
    probe.encode_us += seconds_since(e0) * 1e6;
    probe.bytes += static_cast<double>(bytes.size());
    const auto d0 = Clock::now();
    pl::serialize::Reader reader(std::move(bytes));
    const auto decoded = pl::tvla::read_moments(reader);
    probe.decode_us += seconds_since(d0) * 1e6;
    if (decoded.n_fixed() != moments.n_fixed() ||
        decoded.group_count() != moments.group_count()) {
      probe.round_trip_ok = false;
    }
    ++probe.shards;
  }
  if (probe.shards > 0) {
    const double n = static_cast<double>(probe.shards);
    probe.bytes /= n;
    probe.encode_us /= n;
    probe.decode_us /= n;
  }
  return probe;
}

/// The daemon's cache lookup path from outside: load_design +
/// design_fingerprint + ResultCache::get on a warm key. Mean microseconds.
inline double probe_lookup_us(const std::vector<std::string>& names,
                              double scale,
                              const pl::core::PolarisConfig& config) {
  pl::core::ResultCache cache(names.size() + 1);
  const std::uint64_t config_fp = pl::core::config_fingerprint(config);
  auto key_of = [&](const std::string& name) {
    const auto design = pl::circuits::load_design(name, scale);
    return pl::core::ResultCache::combine(
        config_fp, pl::core::design_fingerprint(design));
  };
  for (const auto& name : names) {
    cache.put(key_of(name),
              std::make_shared<const std::vector<std::uint8_t>>(64, 0));
  }
  std::size_t lookups = 0;
  const auto start = Clock::now();
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& name : names) {
      if (!cache.get(key_of(name))) {
        throw std::runtime_error("ResultCache missed a warm key");
      }
      ++lookups;
    }
  }
  return seconds_since(start) * 1e6 / static_cast<double>(lookups);
}

}  // namespace perfbench
