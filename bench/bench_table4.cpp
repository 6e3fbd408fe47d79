// Reproduces Table IV: "Comparison of area, power, and delay overheads
// between VALIANT and POLARIS." POLARIS uses the 50% mask size (the paper's
// footnote: comparable leakage reduction while masking half the gates);
// overheads are reported as x-times-original, plus POLARIS's percentage
// overhead reduction relative to VALIANT.
#include <cstdio>

#include "analysis/ppa.hpp"
#include "bench_common.hpp"
#include "util/strings.hpp"
#include "valiant/valiant.hpp"

using namespace polaris;

int main() {
  const auto setup = bench::BenchSetup::from_env();
  std::printf("=== Table IV: area/power/delay overheads (traces=%zu, scale=%.2f) ===\n\n",
              setup.traces, setup.scale);

  const auto trained = bench::trained_polaris(
      setup.polaris_config(), circuits::training_suite(), setup.lib);
  const auto& polaris = trained.polaris;

  util::Table table({"Designs", "Area(um2)", "Power(mW)", "Delay(ns)",
                     "V:Area", "V:Pow", "V:Del", "P:Area", "P:Pow", "P:Del",
                     "RedA%", "RedP%", "RedD%"});

  double sum_va = 0, sum_vp = 0, sum_vd = 0;
  double sum_pa = 0, sum_pp = 0, sum_pd = 0;
  double sum_ra = 0, sum_rp = 0, sum_rd = 0;
  std::size_t rows = 0;
  std::size_t reduction_rows = 0;

  for (auto& design : circuits::evaluation_suite(setup.scale)) {
    const auto tvla_config = core::tvla_config_for(polaris.config(), design);
    const auto before = tvla::run(design.netlist, setup.lib, tvla_config);
    const std::size_t leaky = before.leaky_count();

    valiant::ValiantConfig vconfig;
    vconfig.tvla = tvla_config;
    vconfig.max_rounds = 6;
    const auto valiant_result =
        valiant::run_valiant(design.netlist, setup.lib, vconfig);

    const auto polaris_outcome =
        polaris.mask_design(design, setup.lib, leaky / 2);

    const analysis::AnalysisConfig acfg{.activity_cycles = 256, .seed = setup.seed};
    const auto original = analysis::analyze(design.netlist, setup.lib, acfg);
    const auto val_ppa = analysis::analyze(valiant_result.masked, setup.lib, acfg);
    const auto pol_ppa = analysis::analyze(polaris_outcome.masked, setup.lib, acfg);

    const double va = val_ppa.area_um2 / original.area_um2;
    const double vp = val_ppa.power_mw / original.power_mw;
    const double vd = val_ppa.delay_ns / original.delay_ns;
    const double pa = pol_ppa.area_um2 / original.area_um2;
    const double pp = pol_ppa.power_mw / original.power_mw;
    const double pd = pol_ppa.delay_ns / original.delay_ns;
    // Overhead reduction relative to VALIANT's *overhead* (x - 1). Rows
    // where VALIANT added no meaningful overhead (< 10%) are excluded from
    // the percentage columns - the ratio is unstable there.
    const bool meaningful = (va - 1.0) >= 0.1 && (vd - 1.0) >= 0.1;
    const double ra = bench::reduction_percent(va - 1.0, pa - 1.0);
    const double rp = bench::reduction_percent(vp - 1.0, pp - 1.0);
    const double rd = bench::reduction_percent(vd - 1.0, pd - 1.0);

    const auto fmt1 = [](double v) { return util::format_double(v, 1); };
    const auto fmt2 = [](double v) { return util::format_double(v, 2); };
    table.add_row({design.name, fmt1(original.area_um2),
                   fmt2(original.power_mw), fmt2(original.delay_ns), fmt2(va),
                   fmt2(vp), fmt2(vd), fmt2(pa), fmt2(pp), fmt2(pd),
                   meaningful ? fmt1(ra) : "n/a",
                   meaningful ? fmt1(rp) : "n/a",
                   meaningful ? fmt1(rd) : "n/a"});

    sum_va += va; sum_vp += vp; sum_vd += vd;
    sum_pa += pa; sum_pp += pp; sum_pd += pd;
    if (meaningful) {
      sum_ra += ra; sum_rp += rp; sum_rd += rd;
      ++reduction_rows;
    }
    ++rows;
  }

  const double n = static_cast<double>(rows);
  const double nr = static_cast<double>(std::max<std::size_t>(1, reduction_rows));
  const auto fmt = [](double v) { return util::format_double(v, 2); };
  table.add_row({"Average", "", "", "", fmt(sum_va / n), fmt(sum_vp / n),
                 fmt(sum_vd / n), fmt(sum_pa / n), fmt(sum_pp / n),
                 fmt(sum_pd / n), fmt(sum_ra / nr), fmt(sum_rp / nr),
                 fmt(sum_rd / nr)});
  std::fputs(table.render().c_str(), stdout);
  std::printf("\npaper shape: VALIANT ~3.9x/3.4x/2.8x original; POLARIS@50%% "
              "~2.5x/2.0x/1.8x; overhead reductions ~35/41/33%%.\n");
  return 0;
}
