#include "techlib/techlib.hpp"

#include <bit>
#include <cmath>

namespace polaris::techlib {

using netlist::CellType;

TechLibrary TechLibrary::default_library() {
  TechLibrary lib;
  const auto set = [&lib](CellType type, double area, double energy,
                          double leak, double delay, double per_fo) {
    lib.costs_[static_cast<std::size_t>(type)] =
        CellCost{area, energy, leak, delay, per_fo};
  };
  // type            area(um2) E_sw(fJ) leak(nW) d(ps) d/fanout(ps)
  set(CellType::kInput,  0.00, 0.00, 0.0,  0.0, 0.0);
  set(CellType::kConst0, 0.27, 0.00, 0.3,  0.0, 0.0);
  set(CellType::kConst1, 0.27, 0.00, 0.3,  0.0, 0.0);
  // A mask-share source is physically an LFSR/PRNG tap buffer; we charge a
  // small flop-like cost so masked designs pay for their randomness.
  set(CellType::kRand,   2.40, 1.10, 9.0,  0.0, 0.0);
  set(CellType::kBuf,    0.80, 0.55, 4.5, 28.0, 6.0);
  set(CellType::kNot,    0.53, 0.45, 3.8, 13.0, 5.0);
  set(CellType::kAnd,    1.06, 0.85, 6.4, 42.0, 7.0);
  set(CellType::kOr,     1.06, 0.88, 6.6, 44.0, 7.0);
  set(CellType::kNand,   0.80, 0.62, 5.0, 22.0, 6.5);
  set(CellType::kNor,    0.80, 0.66, 5.2, 26.0, 7.5);
  set(CellType::kXor,    1.60, 1.35, 8.9, 56.0, 8.0);
  set(CellType::kXnor,   1.60, 1.32, 8.8, 54.0, 8.0);
  set(CellType::kMux,    1.86, 1.20, 8.1, 48.0, 7.5);
  set(CellType::kDff,    4.52, 2.10, 18.0, 92.0, 6.0);
  return lib;
}

const CellCost& TechLibrary::base_cost(CellType type) const {
  return costs_[static_cast<std::size_t>(type)];
}

namespace {

/// Number of 2-input cells in the tree decomposition of an n-ary cell.
double tree_cells(std::size_t fan_in) {
  return fan_in <= 2 ? 1.0 : static_cast<double>(fan_in - 1);
}

/// Tree depth of the decomposition.
double tree_levels(std::size_t fan_in) {
  if (fan_in <= 2) return 1.0;
  return static_cast<double>(std::bit_width(fan_in - 1));
}

}  // namespace

double TechLibrary::area(CellType type, std::size_t fan_in) const {
  const CellCost& base = base_cost(type);
  if (!netlist::is_combinational(type) || type == CellType::kBuf ||
      type == CellType::kNot || type == CellType::kMux) {
    return base.area_um2;
  }
  return base.area_um2 * tree_cells(fan_in);
}

double TechLibrary::switch_energy(CellType type, std::size_t fan_in) const {
  const CellCost& base = base_cost(type);
  if (!netlist::is_combinational(type) || type == CellType::kBuf ||
      type == CellType::kNot || type == CellType::kMux) {
    return base.switch_energy_fj;
  }
  return base.switch_energy_fj * (1.0 + 0.35 * (tree_cells(fan_in) - 1.0));
}

double TechLibrary::leakage(CellType type, std::size_t fan_in) const {
  const CellCost& base = base_cost(type);
  if (!netlist::is_combinational(type) || type == CellType::kBuf ||
      type == CellType::kNot || type == CellType::kMux) {
    return base.leakage_nw;
  }
  return base.leakage_nw * tree_cells(fan_in);
}

double TechLibrary::delay(CellType type, std::size_t fan_in,
                          std::size_t fanout) const {
  const CellCost& base = base_cost(type);
  const double levels =
      netlist::is_combinational(type) && type != CellType::kBuf &&
              type != CellType::kNot && type != CellType::kMux
          ? tree_levels(fan_in)
          : 1.0;
  return base.delay_ps * levels +
         base.delay_per_fanout_ps * static_cast<double>(fanout);
}

}  // namespace polaris::techlib
