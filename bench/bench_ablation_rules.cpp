// Ablation (paper Sec. IV-B): "The automated rules ... can be used
// independently to make masking decisions or alongside the model to achieve
// better predictions." Compares the three Algorithm-2 inference modes.
#include <cstdio>

#include "bench_common.hpp"
#include "util/strings.hpp"

using namespace polaris;

int main() {
  const auto setup = bench::BenchSetup::from_env();
  std::printf("=== Ablation: rules vs model inference (traces=%zu) ===\n\n",
              setup.traces);

  const auto trained = bench::trained_polaris(
      setup.polaris_config(), circuits::training_suite(), setup.lib);
  const auto& polaris = trained.polaris;
  std::printf("extracted %zu rules\n\n", polaris.rules().rules().size());

  util::Table table({"Design", "model%", "rules%", "model+rules%"});
  double sums[3] = {0, 0, 0};
  std::size_t rows = 0;
  for (const char* name : {"sin", "sqrt", "div", "voter"}) {
    auto design = circuits::get_design(name, setup.scale);
    const auto tvla_config = core::tvla_config_for(polaris.config(), design);
    const auto before = tvla::run(design.netlist, setup.lib, tvla_config);
    const std::size_t leaky = before.leaky_count();

    std::vector<std::string> row{name};
    const core::InferenceMode modes[3] = {core::InferenceMode::kModel,
                                          core::InferenceMode::kRules,
                                          core::InferenceMode::kModelPlusRules};
    for (int m = 0; m < 3; ++m) {
      const auto outcome = polaris.mask_design(design, setup.lib, leaky,
                                               modes[m], /*verify=*/true);
      const double reduction = bench::reduction_percent(
          before.total_abs_t(), outcome.verification->total_abs_t());
      sums[m] += reduction;
      row.push_back(util::format_double(reduction, 2));
    }
    table.add_row(std::move(row));
    ++rows;
  }
  const double n = static_cast<double>(rows);
  table.add_row({"Average", util::format_double(sums[0] / n, 2),
                 util::format_double(sums[1] / n, 2),
                 util::format_double(sums[2] / n, 2)});
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nexpected shape: rules alone trail the model; combining "
              "recovers most of the model's reduction while staying "
              "human-auditable.\n");
  return 0;
}
