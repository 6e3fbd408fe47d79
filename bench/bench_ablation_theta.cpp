// Ablation: the labelling threshold theta_r (paper Sec. V-A: "selecting
// higher values lead to significant data imbalance, which could cause the
// model to underfit"). Sweeps theta_r and reports dataset balance, model
// quality, and end-to-end leakage reduction on one held-out design.
#include <cstdio>

#include "bench_common.hpp"
#include "ml/metrics.hpp"
#include "util/strings.hpp"

using namespace polaris;

int main() {
  const auto setup = bench::BenchSetup::from_env();
  std::printf("=== Ablation: theta_r sweep (traces=%zu) ===\n\n", setup.traces);

  const auto training = circuits::training_suite();
  auto target = circuits::get_design("sqrt", setup.scale);

  util::Table table({"theta_r", "samples", "pos%", "trainAUC", "reduction%"});
  for (const double theta : {0.3, 0.5, 0.7, 0.85, 0.95}) {
    auto config = setup.polaris_config();
    config.theta_r = theta;
    core::Polaris polaris(config);
    (void)polaris.train(training, setup.lib);

    const auto& data = polaris.training_data();
    const double pos_pct = 100.0 * static_cast<double>(data.positives()) /
                           static_cast<double>(data.size());
    const auto metrics = ml::evaluate(polaris.model(), data);

    const auto tvla_config = core::tvla_config_for(config, target);
    const auto before = tvla::run(target.netlist, setup.lib, tvla_config);
    const auto outcome =
        polaris.mask_design(target, setup.lib, before.leaky_count(),
                            core::InferenceMode::kModel, /*verify=*/true);
    const double reduction = bench::reduction_percent(
        before.total_abs_t(), outcome.verification->total_abs_t());

    table.add_row({util::format_double(theta, 2), std::to_string(data.size()),
                   util::format_double(pos_pct, 1),
                   util::format_double(metrics.auc, 3),
                   util::format_double(reduction, 2)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\npaper shape: positives thin out as theta_r grows; "
              "theta_r = 0.70 balances label quality vs class balance.\n");
  return 0;
}
