// Security/overhead design-space exploration: sweep the masking budget
// (Msize as a fraction of the flagged gates) and the composite scheme
// (Trichina vs DOM), mapping the leakage-vs-area Pareto frontier a designer
// actually navigates.
//
//   $ ./design_space_exploration
#include <cstdio>

#include "analysis/ppa.hpp"
#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "util/table.hpp"
#include "util/strings.hpp"

using namespace polaris;

int main() {
  const auto lib = techlib::TechLibrary::default_library();

  core::PolarisConfig config;
  config.mask_size = 40;
  config.iterations = 40;
  config.tvla.traces = 4096;
  config.model_rounds = 150;

  auto target = circuits::get_design("sin", 0.6);
  std::printf("design space exploration on '%s' (%zu gates)\n\n",
              target.name.c_str(), target.netlist.gate_count());

  const auto ppa_original = analysis::analyze(target.netlist, lib);

  util::Table table({"scheme", "budget", "masked", "leaky", "leak/gate",
                     "red%", "area_x", "power_x", "delay_x"});
  for (const auto scheme : {masking::Scheme::kTrichina, masking::Scheme::kDom}) {
    config.scheme = scheme;
    core::Polaris polaris(config);
    (void)polaris.train(circuits::training_suite(), lib);
    const auto tvla_config = core::tvla_config_for(config, target);
    const auto before = tvla::run(target.netlist, lib, tvla_config);

    for (const double budget : {0.25, 0.5, 0.75, 1.0}) {
      const auto msize = static_cast<std::size_t>(
          budget * static_cast<double>(before.leaky_count()) + 0.5);
      const auto outcome = polaris.mask_design(target, lib, msize,
                                               core::InferenceMode::kModel,
                                               /*verify=*/true);
      const auto ppa = analysis::analyze(outcome.masked, lib);
      table.add_row(
          {scheme == masking::Scheme::kTrichina ? "trichina" : "dom",
           util::format_double(budget, 2), std::to_string(outcome.selected.size()),
           std::to_string(outcome.verification->leaky_count()),
           util::format_double(outcome.verification->leakage_per_gate(), 3),
           util::format_double(
               100.0 * (before.total_abs_t() - outcome.verification->total_abs_t()) /
                   before.total_abs_t(),
               1),
           util::format_double(ppa.area_um2 / ppa_original.area_um2, 2),
           util::format_double(ppa.power_mw / ppa_original.power_mw, 2),
           util::format_double(ppa.delay_ns / ppa_original.delay_ns, 2)});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nreading: pick the cheapest row that clears your leakage "
              "target; DOM trades structure for the same first-order "
              "guarantee.\n");
  return 0;
}
