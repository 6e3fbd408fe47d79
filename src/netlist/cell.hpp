// Cell alphabet of the gate-level IR.
//
// The alphabet matches what a Design Compiler-style mapped netlist contains
// (simple combinational cells + DFF) plus two framework-specific sources:
//   kRand  - a fresh uniformly random bit every evaluation cycle, modelling
//            the on-chip mask-share generator required by Trichina/DOM
//            masking (Sec. II-B of the paper);
//   kConst0/kConst1 - tie cells.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace polaris::netlist {

enum class CellType : std::uint8_t {
  kInput,   // primary-input driver; no fan-in
  kConst0,  // logic 0 tie
  kConst1,  // logic 1 tie
  kRand,    // fresh random bit per cycle (mask share source)
  kBuf,
  kNot,
  kAnd,     // n-ary, fan-in >= 2
  kOr,
  kNand,
  kNor,
  kXor,
  kXnor,
  kMux,     // inputs {sel, a, b}: sel ? b : a
  kDff,     // input {d}; output q; implicit common clock
};

/// Number of distinct cell types (for one-hot feature encodings).
inline constexpr std::size_t kCellTypeCount = 14;

[[nodiscard]] std::string_view to_string(CellType type);

/// Parses both our canonical names ("nand") and common Verilog primitive
/// spellings. Throws std::invalid_argument for unknown names.
[[nodiscard]] CellType cell_type_from_string(std::string_view name);

/// True for cells that take no fan-in and act as value sources.
[[nodiscard]] constexpr bool is_source(CellType type) noexcept {
  return type == CellType::kInput || type == CellType::kConst0 ||
         type == CellType::kConst1 || type == CellType::kRand;
}

/// True for cells evaluated by the combinational wave (everything except
/// sources and state elements).
[[nodiscard]] constexpr bool is_combinational(CellType type) noexcept {
  return !is_source(type) && type != CellType::kDff;
}

/// True for the cell types the masking transforms can replace
/// (Sec. II-B: composite masked gates exist for these functions).
[[nodiscard]] constexpr bool is_maskable(CellType type) noexcept {
  switch (type) {
    case CellType::kAnd:
    case CellType::kOr:
    case CellType::kNand:
    case CellType::kNor:
    case CellType::kXor:
    case CellType::kXnor:
      return true;
    default:
      return false;
  }
}

/// Fan-in arity contract: {min, max} (max = 0 means unbounded).
struct Arity {
  std::size_t min = 0;
  std::size_t max = 0;
};
[[nodiscard]] Arity arity_of(CellType type) noexcept;

/// 64-lane word evaluation: lane l of the result is the cell's boolean
/// function of lane l of each operand. `inputs` are the operand words in
/// gate order (mux: {sel, a, b} -> sel ? b : a). Sources and DFFs are not
/// evaluable here. The compiled kernels and sim::ReferenceSimulator both
/// build on it.
[[nodiscard]] std::uint64_t eval_cell_word(CellType type,
                                           std::span<const std::uint64_t> inputs);

}  // namespace polaris::netlist
