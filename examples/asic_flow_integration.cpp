// ASIC-flow integration (paper contribution 3): consume a synthesized
// structural-Verilog netlist, run the POLARIS DFS pass, and hand back a
// masked netlist plus sign-off style reports - the drop-in point between
// synthesis and P&R.
//
//   $ ./asic_flow_integration [netlist.v]
// Without an argument the example synthesizes its own stand-in netlist
// (a 12-bit multiplier) so it runs self-contained.
#include <cstdio>
#include <string>

#include "analysis/ppa.hpp"
#include "circuits/arith.hpp"
#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog.hpp"

using namespace polaris;

int main(int argc, char** argv) {
  const auto lib = techlib::TechLibrary::default_library();

  // --- front end: read the mapped netlist ---------------------------------
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    path = "asic_flow_input.v";
    netlist::write_verilog_file(circuits::make_multiplier(12), path);
    std::printf("no input given - wrote stand-in netlist %s\n", path.c_str());
  }
  netlist::Netlist design_netlist = netlist::read_verilog_file(path);
  std::printf("read %s:\n%s\n", path.c_str(),
              netlist::to_string(netlist::compute_stats(design_netlist)).c_str());

  circuits::Design design{design_netlist.name(), std::move(design_netlist), {}};
  design.roles.assign(design.netlist.primary_inputs().size(),
                      circuits::InputRole::kData);

  // --- the DFS pass ---------------------------------------------------------
  core::PolarisConfig config;
  config.mask_size = 40;
  config.iterations = 40;
  config.tvla.traces = 4096;
  config.model_rounds = 150;
  core::Polaris polaris(config);
  (void)polaris.train(circuits::training_suite(), lib);

  const auto tvla_config = core::tvla_config_for(config, design);
  const auto before = tvla::run(design.netlist, lib, tvla_config);
  const auto outcome = polaris.mask_design(design, lib, before.leaky_count(),
                                           core::InferenceMode::kModel,
                                           /*verify=*/true);

  // --- back end: masked netlist + reports ----------------------------------
  const std::string out_path = design.name + "_masked.v";
  netlist::write_verilog_file(outcome.masked, out_path);

  const auto ppa_before = analysis::analyze(design.netlist, lib);
  const auto ppa_after = analysis::analyze(outcome.masked, lib);
  std::printf("masked netlist written to %s\n\n", out_path.c_str());
  std::printf("sign-off summary:\n");
  std::printf("  leakage/gate : %.3f -> %.3f  (leaky gates %zu -> %zu)\n",
              before.leakage_per_gate(),
              outcome.verification->leakage_per_gate(), before.leaky_count(),
              outcome.verification->leaky_count());
  std::printf("  area         : %.1f -> %.1f um2 (%.2fx)\n",
              ppa_before.area_um2, ppa_after.area_um2,
              ppa_after.area_um2 / ppa_before.area_um2);
  std::printf("  power        : %.3f -> %.3f mW (%.2fx)\n",
              ppa_before.power_mw, ppa_after.power_mw,
              ppa_after.power_mw / ppa_before.power_mw);
  std::printf("  delay        : %.3f -> %.3f ns (%.2fx)\n",
              ppa_before.delay_ns, ppa_after.delay_ns,
              ppa_after.delay_ns / ppa_before.delay_ns);
  return 0;
}
