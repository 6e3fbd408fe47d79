#include "valiant/valiant.hpp"

#include <algorithm>

#include "util/timer.hpp"

namespace polaris::valiant {

using netlist::GateId;

ValiantResult run_valiant(const netlist::Netlist& design,
                          const techlib::TechLibrary& lib,
                          const ValiantConfig& config) {
  util::Timer timer;

  tvla::LeakageReport before = tvla::run(design, lib, config.tvla);

  std::vector<GateId> masked_set;
  std::vector<bool> in_set(design.gate_count(), false);
  netlist::Netlist current = design;
  tvla::LeakageReport latest = before;
  std::size_t rounds = 0;

  for (std::size_t round = 0; round < config.max_rounds; ++round) {
    // Flagged groups are reported against original gate ids; skip the ones
    // already masked (their residual leakage cannot be reduced further by
    // the same composite).
    std::vector<GateId> flagged;
    for (const GateId g : latest.leaky_groups()) {
      if (g < design.gate_count() && !in_set[g] &&
          netlist::is_maskable(design.gate(g).type)) {
        flagged.push_back(g);
      }
    }
    if (flagged.empty()) break;

    auto batch_size = static_cast<std::size_t>(
        config.batch_fraction * static_cast<double>(flagged.size()) + 0.999);
    batch_size = std::clamp<std::size_t>(batch_size, 1, flagged.size());
    for (std::size_t i = 0; i < batch_size; ++i) {
      masked_set.push_back(flagged[i]);
      in_set[flagged[i]] = true;
    }

    current = masking::apply_masking(design, masked_set, config.scheme).design;
    ++rounds;
    // Re-evaluate: this TVLA round is the flow's runtime cost center.
    latest = tvla::run(current, lib, config.tvla);
  }

  ValiantResult result{std::move(current), std::move(masked_set), rounds,
                       timer.seconds(), std::move(before), std::move(latest)};
  return result;
}

}  // namespace polaris::valiant
