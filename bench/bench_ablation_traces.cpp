// Ablation: TVLA trace budget. More traces shrink the t-statistic's noise
// floor, revealing more leaky gates and stabilizing the leaky set (this is
// the scalability bottleneck that motivates bypassing TVLA, Sec. III-B).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

using namespace polaris;

int main() {
  const auto setup = bench::BenchSetup::from_env();
  std::printf("=== Ablation: TVLA trace budget (design=multiplier) ===\n\n");

  auto design = circuits::get_design("multiplier", setup.scale);
  core::PolarisConfig base = bench::BenchSetup::from_env().polaris_config();
  auto tvla_config = core::tvla_config_for(base, design);

  // Reference leaky set at the largest budget.
  tvla_config.traces = 65536;
  const auto reference = tvla::run(design.netlist, setup.lib, tvla_config);
  const auto ref_leaky = reference.leaky_groups();
  std::vector<bool> is_ref(design.netlist.gate_count(), false);
  for (const auto g : ref_leaky) is_ref[g] = true;
  std::printf("reference (65536 traces): %zu leaky gates\n\n", ref_leaky.size());

  util::Table table({"traces", "time(s)", "leaky", "recall%", "precision%",
                     "mean|t|"});
  for (const std::size_t traces :
       {512u, 1024u, 2048u, 4096u, 8192u, 16384u, 32768u}) {
    tvla_config.traces = traces;
    util::Timer timer;
    const auto report = tvla::run(design.netlist, setup.lib, tvla_config);
    const double seconds = timer.seconds();
    const auto leaky = report.leaky_groups();
    std::size_t hits = 0;
    for (const auto g : leaky) hits += is_ref[g] ? 1 : 0;
    const double recall = ref_leaky.empty()
                              ? 0.0
                              : 100.0 * static_cast<double>(hits) /
                                    static_cast<double>(ref_leaky.size());
    const double precision = leaky.empty()
                                 ? 0.0
                                 : 100.0 * static_cast<double>(hits) /
                                       static_cast<double>(leaky.size());
    table.add_row({std::to_string(traces), util::format_double(seconds, 3),
                   std::to_string(leaky.size()),
                   util::format_double(recall, 1),
                   util::format_double(precision, 1),
                   util::format_double(report.leakage_per_gate(), 3)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nexpected shape: leaky-set recall climbs with traces while "
              "cost grows linearly - the VALIANT-style flows pay this per "
              "round, POLARIS pays it never (inference only).\n");
  return 0;
}
