// POLARIS in 60 seconds: generate training data without any labelled
// dataset (Algorithm 1), train the masking model, and harden an unseen
// design (Algorithm 2) - no TVLA in the masking loop.
//
//   $ ./quickstart
#include <cstdio>

#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "techlib/techlib.hpp"
#include "util/math.hpp"

using namespace polaris;

int main() {
  const auto lib = techlib::TechLibrary::default_library();

  // 1. Configure the tool (paper defaults, scaled for a quick demo).
  core::PolarisConfig config;
  config.mask_size = 60;       // Msize per Algorithm-1 iteration
  config.locality = 7;         // L: BFS neighborhood size
  config.iterations = 100;     // itr
  config.theta_r = 0.70;       // "good masking" = >= 70% leakage reduction
  config.tvla.traces = 8192;
  config.model_rounds = 300;

  // 2. Unsupervised training-data generation + model fit + SHAP rules.
  core::Polaris polaris(config);
  const auto training = circuits::training_suite();
  std::printf("training on %zu small designs...\n", training.size());
  const auto summary = polaris.train(training, lib);
  std::printf("  %zu labelled samples (%zu 'good mask'), %.1fs total\n\n",
              summary.samples, summary.positives,
              summary.dataset_seconds + summary.training_seconds);

  // 3. Harden an unseen design: audit, mask, verify. (A reduced-round DES
  // core - the crypto scenario the paper's introduction motivates.)
  auto target = circuits::get_design("des3", 0.5);
  std::printf("target design '%s': %zu gates\n", target.name.c_str(),
              target.netlist.gate_count());

  const auto tvla_config = core::tvla_config_for(config, target);
  const auto before = tvla::run(target.netlist, lib, tvla_config);
  std::printf("before: %zu leaky gates, leakage/gate %.3f\n",
              before.leaky_count(), before.leakage_per_gate());

  const auto outcome = polaris.mask_design(target, lib, before.leaky_count(),
                                           core::InferenceMode::kModel,
                                           /*verify=*/true);
  std::printf("masked %zu gates in %.2fs (model inference only - no TVLA)\n",
              outcome.selected.size(), outcome.seconds);
  // Guard the percentage against a clean baseline (nothing leaked before).
  const double reduction = util::reduction_percent(
      before.total_abs_t(), outcome.verification->total_abs_t());
  std::printf("after:  %zu leaky gates, leakage/gate %.3f (%.1f%% total "
              "leakage reduction)\n",
              outcome.verification->leaky_count(),
              outcome.verification->leakage_per_gate(), reduction);

  // 4. The explainable part: the mined masking rules.
  std::printf("\n%zu human-readable rules extracted via SHAP "
              "(run bench_table5_rules for the full list)\n",
              polaris.rules().rules().size());

  // 5. Train once, serve many: bundle the trained model and reload it - a
  // fresh process (or another host) masks designs with zero retraining and
  // bit-identical gate selections. The polaris_cli tool serves the same
  // bundles from the command line.
  polaris.save_bundle("quickstart.plb");
  const auto served = core::Polaris::load_bundle("quickstart.plb");
  const auto again = served.mask_design(target, lib, outcome.selected.size());
  std::printf("\nbundle round-trip: saved quickstart.plb, reloaded, and "
              "re-masked -> %s gate selections\n",
              again.selected == outcome.selected ? "identical" : "DIFFERENT");
  return 0;
}
