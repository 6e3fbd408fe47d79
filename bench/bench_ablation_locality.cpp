// Ablation: feature locality L (paper uses L = 7 BFS neighbors). Sweeps L
// and reports feature dimensionality, training time, model quality, and
// leakage reduction on one held-out design.
#include <cstdio>

#include "bench_common.hpp"
#include "graph/features.hpp"
#include "ml/metrics.hpp"
#include "util/strings.hpp"

using namespace polaris;

int main() {
  const auto setup = bench::BenchSetup::from_env();
  std::printf("=== Ablation: locality L sweep (traces=%zu) ===\n\n", setup.traces);

  const auto training = circuits::training_suite();
  auto target = circuits::get_design("square", setup.scale);

  util::Table table({"L", "features", "train(s)", "trainAUC", "reduction%"});
  for (const std::size_t locality : {1u, 3u, 5u, 7u, 9u}) {
    auto config = setup.polaris_config();
    config.locality = locality;
    core::Polaris polaris(config);
    util::Timer timer;
    (void)polaris.train(training, setup.lib);
    const double train_seconds = timer.seconds();

    const auto metrics = ml::evaluate(polaris.model(), polaris.training_data());
    const auto tvla_config = core::tvla_config_for(config, target);
    const auto before = tvla::run(target.netlist, setup.lib, tvla_config);
    const auto outcome =
        polaris.mask_design(target, setup.lib, before.leaky_count(),
                            core::InferenceMode::kModel, /*verify=*/true);
    const double reduction = bench::reduction_percent(
        before.total_abs_t(), outcome.verification->total_abs_t());

    table.add_row({std::to_string(locality),
                   std::to_string(graph::FeatureSpec{locality}.dim()),
                   util::format_double(train_seconds, 2),
                   util::format_double(metrics.auc, 3),
                   util::format_double(reduction, 2)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nexpected shape: quality saturates around L = 7 while "
              "feature dimensionality (and cost) keeps growing.\n");
  return 0;
}
