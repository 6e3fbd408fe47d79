// Reproduces Table II: "Quantitative comparison between VALIANT & POLARIS
// in terms of leakage reduction & runtime efficiency."
//
// Columns: per-gate leakage before masking, after VALIANT, after POLARIS at
// 50% / 75% / 100% of the TVLA-flagged ("leaky") gate count; total leakage
// reduction percentages; wall-clock flow times. POLARIS time = Algorithm 2
// (inference + sort + rewrite) plus one verification TVLA; VALIANT time =
// its full multi-round TVLA-mask-TVLA loop.
#include <cstdio>

#include "bench_common.hpp"
#include "util/strings.hpp"
#include "valiant/valiant.hpp"

using namespace polaris;

int main() {
  const auto setup = bench::BenchSetup::from_env();
  std::printf("=== Table II: VALIANT vs POLARIS (traces=%zu, scale=%.2f) ===\n\n",
              setup.traces, setup.scale);

  // Stage 1+2: train once on the small training designs (Sec. V-A), or
  // serve a previously trained model (POLARIS_BENCH_BUNDLE).
  const auto training = circuits::training_suite();
  const auto trained =
      bench::trained_polaris(setup.polaris_config(), training, setup.lib);
  const auto& polaris = trained.polaris;
  if (!trained.from_bundle) {
    std::printf("training: %zu samples (%zu positive) from %zu designs in "
                "%.1fs\n\n",
                polaris.training_data().size(),
                polaris.training_data().positives(), training.size(),
                trained.seconds);
  }

  util::Table table({"Benchmark", "Gates", "Leaky", "Before", "VALIANT",
                     "POL50%", "POL75%", "POL100%", "Red%V", "Red%50",
                     "Red%75", "Red%100", "tV(s)", "tP(s)"});

  double sum_before = 0, sum_val = 0, sum_p50 = 0, sum_p75 = 0, sum_p100 = 0;
  double sum_rv = 0, sum_r50 = 0, sum_r75 = 0, sum_r100 = 0;
  double sum_tv = 0, sum_tp = 0;
  std::size_t rows = 0;

  for (auto& design : circuits::evaluation_suite(setup.scale)) {
    const auto tvla_config =
        core::tvla_config_for(polaris.config(), design);
    const auto before = tvla::run(design.netlist, setup.lib, tvla_config);
    const std::size_t leaky = before.leaky_count();

    // --- VALIANT baseline -------------------------------------------------
    valiant::ValiantConfig vconfig;
    vconfig.tvla = tvla_config;
    vconfig.max_rounds = 6;
    const auto valiant_result =
        valiant::run_valiant(design.netlist, setup.lib, vconfig);

    // --- POLARIS at 50/75/100% of the leaky-gate count ---------------------
    struct PolarisPoint {
      double leakage_per_gate = 0.0;
      double total = 0.0;
      double seconds = 0.0;
    };
    PolarisPoint points[3];
    const double fractions[3] = {0.50, 0.75, 1.00};
    for (int i = 0; i < 3; ++i) {
      const auto msize = static_cast<std::size_t>(
          fractions[i] * static_cast<double>(leaky) + 0.5);
      util::Timer timer;
      const auto outcome = polaris.mask_design(design, setup.lib, msize,
                                               core::InferenceMode::kModel,
                                               /*verify=*/true);
      points[i].seconds = timer.seconds();
      points[i].leakage_per_gate = outcome.verification->leakage_per_gate();
      points[i].total = outcome.verification->total_abs_t();
    }

    const double rv = bench::reduction_percent(before.total_abs_t(),
                                               valiant_result.after.total_abs_t());
    const double r50 = bench::reduction_percent(before.total_abs_t(), points[0].total);
    const double r75 = bench::reduction_percent(before.total_abs_t(), points[1].total);
    const double r100 = bench::reduction_percent(before.total_abs_t(), points[2].total);

    const auto fmt = [](double v) { return util::format_double(v, 2); };
    table.add_row({design.name, std::to_string(design.netlist.gate_count()),
                   std::to_string(leaky), fmt(before.leakage_per_gate()),
                   fmt(valiant_result.after.leakage_per_gate()),
                   fmt(points[0].leakage_per_gate),
                   fmt(points[1].leakage_per_gate),
                   fmt(points[2].leakage_per_gate), fmt(rv), fmt(r50),
                   fmt(r75), fmt(r100), fmt(valiant_result.seconds),
                   fmt(points[2].seconds)});

    sum_before += before.leakage_per_gate();
    sum_val += valiant_result.after.leakage_per_gate();
    sum_p50 += points[0].leakage_per_gate;
    sum_p75 += points[1].leakage_per_gate;
    sum_p100 += points[2].leakage_per_gate;
    sum_rv += rv;
    sum_r50 += r50;
    sum_r75 += r75;
    sum_r100 += r100;
    sum_tv += valiant_result.seconds;
    sum_tp += points[2].seconds;
    ++rows;
  }

  const double n = static_cast<double>(rows);
  const auto fmt = [](double v) { return util::format_double(v, 2); };
  table.add_row({"Average", "", "", fmt(sum_before / n), fmt(sum_val / n),
                 fmt(sum_p50 / n), fmt(sum_p75 / n), fmt(sum_p100 / n),
                 fmt(sum_rv / n), fmt(sum_r50 / n), fmt(sum_r75 / n),
                 fmt(sum_r100 / n), fmt(sum_tv / n), fmt(sum_tp / n)});

  std::fputs(table.render().c_str(), stdout);
  std::printf("\nspeedup (avg VALIANT time / avg POLARIS time): %.1fx\n",
              sum_tv / std::max(sum_tp, 1e-9));
  std::printf("paper shape: POLARIS@50%% ~ VALIANT@full reduction; POLARIS "
              "@100%% > VALIANT; POLARIS ~6x faster.\n");
  return 0;
}
