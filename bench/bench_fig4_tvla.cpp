// Reproduces Fig. 4: "TVLA values before and after masking in des3 design.
// Gates exceeding threshold (+-4.5) are considered as leaky." Prints the
// per-gate t-value series (binned ASCII profile) and exports the raw series
// as CSV.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "circuits/aes_sbox.hpp"
#include "engine/thread_pool.hpp"
#include "masking/masking.hpp"
#include "power/power_model.hpp"
#include "power/sample_plan.hpp"
#include "sim/compiled.hpp"
#include "sim/simd.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

using namespace polaris;

namespace {

/// "model name" from /proc/cpuinfo, "unknown" elsewhere. Quotes and
/// backslashes are dropped so the value is safe inside a JsonLine.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model;
    for (const char c : line.substr(colon + 1)) {
      if (c != '"' && c != '\\') model += c;
    }
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
  return "unknown";
}

/// Masked-design readout probe: the AES S-box layer with every maskable
/// gate replaced by a composite, so most groups take the multi-member
/// (float moment) readout instead of the integer popcount path the kernel
/// probe times. Runs the campaign with the portable lane scatter and, when
/// the SIMD policy allows it, again with the AVX2 scatter, and checks that
/// both give bit-identical t-values.
void masked_readout_probe(const bench::BenchSetup& setup,
                          const netlist::Netlist& sbox) {
  std::vector<netlist::GateId> targets;
  for (netlist::GateId g = 0; g < sbox.gate_count(); ++g) {
    if (netlist::is_maskable(sbox.gate(g).type)) targets.push_back(g);
  }
  const auto masked = masking::apply_masking(sbox, targets);
  const auto compiled = sim::compile(masked.design);
  const std::size_t multi_groups =
      power::SamplePlan(*compiled, power::PowerModel(masked.design, setup.lib))
          .multi_group_count();

  tvla::TvlaConfig config;
  config.traces = setup.traces;
  config.seed = setup.seed;
  config.noise_std_fj = 1.0;
  config.threads = setup.threads;
  config.lane_words = setup.lane_words;
  const std::size_t lane_words = config.lane_words != 0
                                     ? config.lane_words
                                     : sim::default_lane_words();

  const sim::SimdMode entry_mode = sim::simd_mode();
  const bool run_avx2 = sim::avx2_enabled();
  const auto timed_run = [&](sim::SimdMode mode, double& seconds) {
    sim::set_simd_mode(mode);
    util::Timer timer;
    auto report = tvla::run_fixed_vs_random(compiled, setup.lib, config);
    seconds = timer.seconds();
    return report;
  };
  double portable_seconds = 0.0, avx2_seconds = 0.0;
  const auto portable = timed_run(sim::SimdMode::kPortable, portable_seconds);
  bool identical = true;
  if (run_avx2) {
    const auto avx2 = timed_run(sim::SimdMode::kAvx2, avx2_seconds);
    const auto bits = [](double t) { return std::bit_cast<std::uint64_t>(t); };
    identical = std::ranges::equal(portable.t_values(), avx2.t_values(), {},
                                   bits, bits);
  }
  sim::set_simd_mode(entry_mode);

  const auto rate = [&](double seconds) {
    return seconds > 0.0 ? static_cast<double>(setup.traces) / seconds : 0.0;
  };
  char avx2_text[32] = "not run";
  if (run_avx2) {
    std::snprintf(avx2_text, sizeof(avx2_text), "%.3fs", avx2_seconds);
  }
  std::printf("masked readout probe: aes_sbox x4 masked (%zu gates, %zu "
              "multi groups), %zu traces: portable %.3fs, avx2 %s, "
              "t-values %s\n\n",
              masked.design.gate_count(), multi_groups, setup.traces,
              portable_seconds, avx2_text,
              identical ? "bit-identical" : "DIFFER");
  bench::JsonLine("fig4_tvla_masked")
      .field("design", "aes_sbox_masked")
      .field("gates", masked.design.gate_count())
      .field("multi_groups", multi_groups)
      .field("traces", setup.traces)
      .field("threads", engine::ThreadPool::resolve_threads(config.threads))
      .field("lane_words", lane_words)
      .field("nproc", std::thread::hardware_concurrency())
      .field("cpu_model", cpu_model())
      .field("avx2_supported", sim::avx2_supported() ? 1 : 0)
      .field("avx2_built", sim::avx2_built() ? 1 : 0)
      .field("portable_traces_per_sec", rate(portable_seconds), 1)
      .field("avx2_traces_per_sec", rate(avx2_seconds), 1)
      .field("bit_identical", identical ? 1 : 0)
      .print();
}

}  // namespace

int main() {
  const auto setup = bench::BenchSetup::from_env();

  // --- compiled-kernel probe: raw campaign throughput, no model ----------
  // A combinational AES S-box layer isolates the sim->power->moments loop:
  // compile once (reported as compile_ms), then run the fixed-vs-random
  // campaign over the shared plan. This is the kernel number the perf
  // trajectory (BENCH_fig4_tvla.json) tracks across PRs.
  {
    const auto sbox = circuits::make_aes_sbox_layer(4);
    tvla::TvlaConfig config;
    config.traces = setup.traces;
    config.seed = setup.seed;
    config.noise_std_fj = 1.0;
    config.threads = setup.threads;
    config.lane_words = setup.lane_words;  // POLARIS_BENCH_WORDS, 0 = auto

    util::Timer compile_timer;
    const auto compiled = sim::compile(sbox);
    const double compile_ms = compile_timer.seconds() * 1e3;
    util::Timer kernel_timer;
    const auto report = tvla::run_fixed_vs_random(compiled, setup.lib, config);
    const double kernel_seconds = kernel_timer.seconds();
    // The width this combinational campaign actually ran at, and the
    // kernel path that width resolves to under the current SIMD policy.
    const std::size_t lane_words = config.lane_words != 0
                                       ? config.lane_words
                                       : sim::default_lane_words();
    std::printf("kernel probe: aes_sbox x4 (%zu gates) compiled in %.2fms "
                "(%zu buf/not runs fused), %zu traces in %.3fs "
                "(%zu-word blocks, %s), %zu leaky\n\n",
                sbox.gate_count(), compile_ms, compiled->fused_run_count(),
                setup.traces, kernel_seconds, lane_words,
                sim::simd_name(lane_words), report.leaky_count());
    bench::JsonLine("fig4_tvla_kernel")
        .field("design", "aes_sbox")
        .field("gates", sbox.gate_count())
        .field("traces", setup.traces)
        .field("threads", engine::ThreadPool::resolve_threads(config.threads))
        .field("lane_words", lane_words)
        .field("simd", sim::simd_name(lane_words))
        .field("fused_runs", compiled->fused_run_count())
        .field("compile_ms", compile_ms)
        .field("campaign_seconds", kernel_seconds)
        .field("traces_per_sec",
               kernel_seconds > 0.0
                   ? static_cast<double>(setup.traces) / kernel_seconds
                   : 0.0,
               1)
        .print();
    // --- adaptive probe: early-stop budget vs the fixed budget -----------
    // Same campaign with TvlaBudget enabled (floor = traces/32, default
    // margin). Records how many traces the checkpointed verdict saves while
    // the design-level TVLA verdict (leaky yes/no) matches the full run's -
    // the per-gate t series at the stop point is a partial view by design.
    {
      const auto full_verdict = report.leaky_count() > 0;
      tvla::TvlaConfig adaptive = config;
      adaptive.budget.enabled = true;
      adaptive.budget.min_traces = std::max<std::size_t>(64, setup.traces / 32);
      util::Timer adaptive_timer;
      const auto early =
          tvla::run_fixed_vs_random(compiled, setup.lib, adaptive);
      const double adaptive_seconds = adaptive_timer.seconds();
      const std::size_t used =
          early.early_stopped() ? early.traces_used() : setup.traces;
      const bool early_verdict = early.leaky_count() > 0;
      const double saved_percent =
          100.0 * (1.0 - static_cast<double>(used) /
                             static_cast<double>(setup.traces));
      std::printf("adaptive probe: budget floor %zu, stopped=%s at %zu/%zu "
                  "traces (%.1f%% saved, %.3fs vs %.3fs), verdict %s vs %s\n\n",
                  adaptive.budget.min_traces,
                  early.early_stopped() ? "yes" : "no", used, setup.traces,
                  saved_percent, adaptive_seconds, kernel_seconds,
                  early_verdict ? "leaky" : "clean",
                  full_verdict ? "leaky" : "clean");
      bench::JsonLine("fig4_tvla_adaptive")
          .field("design", "aes_sbox")
          .field("traces", setup.traces)
          .field("min_traces", adaptive.budget.min_traces)
          .field("early_stopped", early.early_stopped() ? 1 : 0)
          .field("traces_used", used)
          .field("saved_percent", saved_percent)
          .field("verdict_equal",
                 early_verdict == full_verdict ? 1 : 0)
          .field("leaky_at_stop", early.leaky_count())
          .field("leaky_at_full", report.leaky_count())
          .field("campaign_seconds", adaptive_seconds)
          .print();
    }
    masked_readout_probe(setup, sbox);
    // CI bench-smoke runs just the kernel probe: the full Fig. 4 flow below
    // trains a model first, which a perf-recording job does not need.
    const char* kernel_only = std::getenv("POLARIS_BENCH_KERNEL_ONLY");
    if (kernel_only != nullptr && *kernel_only != '\0' && *kernel_only != '0') {
      return 0;
    }
  }

  std::printf("=== Fig. 4: per-gate TVLA before/after POLARIS masking (des3) ===\n\n");

  const auto trained = bench::trained_polaris(
      setup.polaris_config(), circuits::training_suite(), setup.lib);
  const auto& polaris = trained.polaris;

  auto design = circuits::get_design("des3", setup.scale);
  const auto tvla_config = core::tvla_config_for(polaris.config(), design);
  util::Timer compile_timer;
  const auto compiled_des3 = sim::compile(design.netlist);
  const double des3_compile_ms = compile_timer.seconds() * 1e3;
  util::Timer campaign_timer;
  const auto before =
      tvla::run_fixed_vs_random(compiled_des3, setup.lib, tvla_config);
  const double campaign_seconds = campaign_timer.seconds();
  const std::size_t leaky = before.leaky_count();
  std::printf("des3: %zu gates, %zu leaky before masking (|t| > %.1f)\n",
              design.netlist.gate_count(), leaky, tvla_config.threshold);

  const auto outcome = polaris.mask_design(design, setup.lib, leaky,
                                           core::InferenceMode::kModel,
                                           /*verify=*/true);
  const auto& after = *outcome.verification;
  std::printf("after masking %zu gates: %zu leaky remain\n\n",
              outcome.selected.size(), after.leaky_count());

  // ASCII profile: max |t| per bin of gate ids, before vs after.
  const std::size_t bins = 64;
  const std::size_t per_bin =
      (design.netlist.gate_count() + bins - 1) / bins;
  std::printf("per-gate |t| profile (%zu gates per column, * = before, "
              "o = after, | = 4.5 threshold):\n", per_bin);
  for (const char* which : {"before", "after"}) {
    const auto& report = (which[0] == 'b') ? before : after;
    std::printf("%-7s ", which);
    for (std::size_t b = 0; b < bins; ++b) {
      double peak = 0.0;
      for (std::size_t g = b * per_bin;
           g < std::min<std::size_t>((b + 1) * per_bin, report.group_count());
           ++g) {
        peak = std::max(peak, std::fabs(report.t_value(g)));
      }
      char mark = '.';
      if (peak > tvla_config.threshold * 2) mark = '#';
      else if (peak > tvla_config.threshold) mark = '*';
      else if (peak > tvla_config.threshold / 2) mark = '+';
      std::printf("%c", mark);
    }
    std::printf("\n");
  }

  util::CsvWriter csv({"gate", "t_before", "t_after"});
  for (netlist::GateId g = 0; g < before.group_count(); ++g) {
    if (!before.measured(g)) continue;
    csv.add_row({std::to_string(g),
                 util::format_double(before.t_value(g), 4),
                 util::format_double(after.t_value(g), 4)});
  }
  csv.write_file("fig4_tvla_des3.csv");

  std::printf("\nleakage per gate: %.3f -> %.3f (%.1f%% total reduction)\n",
              before.leakage_per_gate(), after.leakage_per_gate(),
              bench::reduction_percent(before.total_abs_t(),
                                       after.total_abs_t()));
  std::printf("raw series written to fig4_tvla_des3.csv\n");

  // Machine-readable perf record (one JSON line, greppable by future PRs):
  // wall-clock of the un-masked des3 campaign above, plus run-total obs
  // counters - tvla_traces / sched_shards contextualize the rate when a
  // future PR changes sharding or batching.
  bench::JsonLine line("fig4_tvla");
  line.field("design", "des3")
      .field("traces", setup.traces)
      .field("threads", engine::ThreadPool::resolve_threads(tvla_config.threads))
      .field("compile_ms", des3_compile_ms)
      .field("campaign_seconds", campaign_seconds)
      .field("traces_per_sec",
             campaign_seconds > 0.0
                 ? static_cast<double>(setup.traces) / campaign_seconds
                 : 0.0,
             1);
  bench::append_obs_counters(
      line, {"tvla.campaigns", "tvla.traces", "sched.shards", "pool.tasks"})
      .print();
  return 0;
}
