// Crypto-core hardening scenario: a 4-byte AES SubBytes slice
// (AddRoundKey + S-box) - the canonical first-order DPA target. Audits
// per-gate leakage, masks with POLARIS, verifies with TVLA, and explains
// one masking decision with a SHAP waterfall.
//
//   $ ./aes_sbox_hardening
#include <cmath>
#include <cstdio>

#include "circuits/aes_sbox.hpp"
#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "graph/features.hpp"
#include "xai/waterfall.hpp"

using namespace polaris;

int main() {
  const auto lib = techlib::TechLibrary::default_library();

  core::PolarisConfig config;
  config.mask_size = 50;
  config.iterations = 60;
  config.tvla.traces = 8192;
  config.model_rounds = 200;
  core::Polaris polaris(config);
  (void)polaris.train(circuits::training_suite(), lib);

  // The device under test: 4 S-boxes, plaintext sensitive, key fixed.
  circuits::Design dut{"aes_subbytes4", circuits::make_aes_sbox_layer(4), {}};
  dut.roles.assign(dut.netlist.primary_inputs().size(),
                   circuits::InputRole::kData);
  for (std::size_t i = 32; i < 64; ++i) dut.roles[i] = circuits::InputRole::kKey;

  const auto tvla_config = core::tvla_config_for(config, dut);
  const auto before = tvla::run(dut.netlist, lib, tvla_config);
  std::printf("AES SubBytes slice: %zu gates, %zu leak above |t|=4.5 "
              "(worst |t| seen: %.1f)\n",
              dut.netlist.gate_count(), before.leaky_count(),
              [&] {
                double worst = 0;
                for (const double t : before.t_values()) {
                  worst = std::max(worst, std::fabs(t));
                }
                return worst;
              }());

  // Mask exactly the flagged count; verify.
  const auto outcome = polaris.mask_design(dut, lib, before.leaky_count(),
                                           core::InferenceMode::kModel,
                                           /*verify=*/true);
  std::printf("POLARIS masked %zu gates -> %zu still above threshold, "
              "leakage/gate %.3f -> %.3f\n\n",
              outcome.selected.size(), outcome.verification->leaky_count(),
              before.leakage_per_gate(),
              outcome.verification->leakage_per_gate());

  // Explain the top-ranked masking decision.
  graph::FeatureExtractor extractor(dut.netlist,
                                    graph::FeatureSpec{config.locality});
  const auto names = graph::FeatureSpec{config.locality}.feature_names();
  const auto gate = outcome.selected.front();
  std::printf("why was gate g%u (%s) masked first?\n", gate,
              std::string(netlist::to_string(dut.netlist.gate(gate).type)).c_str());
  const auto features = extractor.extract(gate);
  const auto wf = xai::make_waterfall(polaris.model(), features, names, 7);
  std::fputs(wf.render().c_str(), stdout);
  return 0;
}
