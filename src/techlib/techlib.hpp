// Technology library: per-cell physical costs.
//
// Table IV of the paper reports area (um^2), power (mW) and delay (ns) from
// Synopsys DC reports on a commercial library. We substitute a
// self-contained 45nm-class library whose *relative* cell costs follow
// published NanGate 45nm OpenCell characterization (NAND2 as the unit cell).
// The overhead ratios the paper reports (x original) are preserved because
// they depend only on relative costs and on how many cells each flow adds.
//
// Cost model:
//   area(type, n)      : base area scaled by a fan-in factor equivalent to a
//                        2-input tree decomposition (n-1 two-input cells).
//   switch_energy(type): dynamic energy per output toggle (fJ); drives the
//                        power model and per-gate TVLA samples.
//   leakage(type)      : static power (nW).
//   delay(type, fanout): intrinsic delay + load-dependent term (ps).
#pragma once

#include <cstddef>

#include "netlist/cell.hpp"

namespace polaris::techlib {

struct CellCost {
  double area_um2 = 0.0;
  double switch_energy_fj = 0.0;
  double leakage_nw = 0.0;
  double delay_ps = 0.0;
  double delay_per_fanout_ps = 0.0;
};

class TechLibrary {
 public:
  /// The default, self-contained 45nm-class library (see file comment).
  [[nodiscard]] static TechLibrary default_library();

  /// Base (fan-in-2 where applicable) cost record for a cell type.
  [[nodiscard]] const CellCost& base_cost(netlist::CellType type) const;

  /// Fan-in-aware scaling: an n-ary cell costs what its balanced 2-input
  /// tree decomposition would ((n-1) base cells area/energy/leakage,
  /// ceil(log2 n) levels of delay).
  [[nodiscard]] double area(netlist::CellType type, std::size_t fan_in) const;
  [[nodiscard]] double switch_energy(netlist::CellType type, std::size_t fan_in) const;
  [[nodiscard]] double leakage(netlist::CellType type, std::size_t fan_in) const;
  [[nodiscard]] double delay(netlist::CellType type, std::size_t fan_in,
                             std::size_t fanout) const;

 private:
  TechLibrary() = default;
  CellCost costs_[netlist::kCellTypeCount];
};

}  // namespace polaris::techlib
