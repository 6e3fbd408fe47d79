// Masked composite gates and the netlist rewrite that inserts them.
//
// Paper Sec. II-B / Fig. 1 / Eq. 5 (Trichina 2003): with masks x, y on the
// operands and a fresh output mask z,
//   M(a.b) = ((a^.b^) ^ ((x.b^) ^ ((x.y) ^ z))) ^ (y.a^)  where a^ = a^x,
//   b^ = b^y, and M(a.b) = (a.b) ^ z.
// The masked OR follows by De Morgan; XOR/XNOR are linear and are re-shared
// directly. Sec. V-E names DOM (Gross et al. 2016) as an alternative
// composite; both schemes are provided.
//
// Replacement semantics - share passing with boundary demasking:
//   * a masked gate consumes clear fan-in by re-sharing it with fresh
//     randomness, or masked fan-in as (value, mask) share pairs directly;
//   * its original output net carries the MASKED value (value ^ z) with the
//     mask z on a side net, so every cell inside a masked region switches
//     with data-independent statistics;
//   * an UNMASKED reader of a masked net gets a demask XOR at its input,
//     charged to the reader's gate group (the clear value - and its
//     data-dependent switching - reappears inside the receiving cell);
//   * a primary output driven by a masked net is restored by a demask XOR
//     charged to the driver.
// The rewritten design is functionally identical (exhaustively tested), and
// per-gate TVLA groups stay aligned with original gate ids. Masking a
// connected region therefore eliminates its internal leakage entirely and
// pushes the residual to the region boundary - which is why structurally
// coherent masking sets (what POLARIS's locality features capture)
// outperform scattered ones.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace polaris::masking {

enum class Scheme {
  kTrichina,  // Eq. 5 composites
  kDom,       // domain-oriented masking composites
};

struct MaskingResult {
  netlist::Netlist design;
  /// Per original-gate flag: was it replaced by a composite?
  std::vector<bool> masked;
  std::size_t masked_gates = 0;
  std::size_t added_cells = 0;      // composite cells minus replaced originals
  std::size_t added_rand_bits = 0;  // fresh mask bits consumed per cycle
  std::size_t skipped = 0;          // requested but not maskable
};

/// Rewrites `original`, replacing every maskable gate in `targets` with a
/// masked composite of the chosen scheme. Unknown/duplicate targets and
/// non-maskable cell types are skipped (counted, not fatal). Gate groups in
/// the result refer to original gate ids.
[[nodiscard]] MaskingResult apply_masking(const netlist::Netlist& original,
                                          std::span<const netlist::GateId> targets,
                                          Scheme scheme = Scheme::kTrichina);

}  // namespace polaris::masking
