#include "netlist/cell.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace polaris::netlist {

std::string_view to_string(CellType type) {
  switch (type) {
    case CellType::kInput: return "input";
    case CellType::kConst0: return "const0";
    case CellType::kConst1: return "const1";
    case CellType::kRand: return "rand";
    case CellType::kBuf: return "buf";
    case CellType::kNot: return "not";
    case CellType::kAnd: return "and";
    case CellType::kOr: return "or";
    case CellType::kNand: return "nand";
    case CellType::kNor: return "nor";
    case CellType::kXor: return "xor";
    case CellType::kXnor: return "xnor";
    case CellType::kMux: return "mux";
    case CellType::kDff: return "dff";
  }
  return "?";
}

CellType cell_type_from_string(std::string_view name) {
  const std::string lower = util::to_lower(name);
  if (lower == "input") return CellType::kInput;
  if (lower == "const0" || lower == "tie0") return CellType::kConst0;
  if (lower == "const1" || lower == "tie1") return CellType::kConst1;
  if (lower == "rand" || lower == "rng") return CellType::kRand;
  if (lower == "buf" || lower == "buff") return CellType::kBuf;
  if (lower == "not" || lower == "inv") return CellType::kNot;
  if (lower == "and") return CellType::kAnd;
  if (lower == "or") return CellType::kOr;
  if (lower == "nand") return CellType::kNand;
  if (lower == "nor") return CellType::kNor;
  if (lower == "xor") return CellType::kXor;
  if (lower == "xnor" || lower == "xnr") return CellType::kXnor;
  if (lower == "mux" || lower == "mux2") return CellType::kMux;
  if (lower == "dff" || lower == "ff") return CellType::kDff;
  throw std::invalid_argument("unknown cell type: " + std::string(name));
}

Arity arity_of(CellType type) noexcept {
  switch (type) {
    case CellType::kInput:
    case CellType::kConst0:
    case CellType::kConst1:
    case CellType::kRand:
      return {0, 0};
    case CellType::kBuf:
    case CellType::kNot:
    case CellType::kDff:
      return {1, 1};
    case CellType::kMux:
      return {3, 3};
    case CellType::kAnd:
    case CellType::kOr:
    case CellType::kNand:
    case CellType::kNor:
    case CellType::kXor:
    case CellType::kXnor:
      return {2, 0};  // n-ary
  }
  return {0, 0};
}

std::uint64_t eval_cell_word(CellType type, std::span<const std::uint64_t> inputs) {
  switch (type) {
    case CellType::kBuf: return inputs[0];
    case CellType::kNot: return ~inputs[0];
    case CellType::kMux: return (inputs[0] & inputs[2]) | (~inputs[0] & inputs[1]);
    case CellType::kAnd:
    case CellType::kNand: {
      std::uint64_t acc = ~0ULL;
      for (const std::uint64_t v : inputs) acc &= v;
      return type == CellType::kAnd ? acc : ~acc;
    }
    case CellType::kOr:
    case CellType::kNor: {
      std::uint64_t acc = 0;
      for (const std::uint64_t v : inputs) acc |= v;
      return type == CellType::kOr ? acc : ~acc;
    }
    case CellType::kXor:
    case CellType::kXnor: {
      std::uint64_t acc = 0;
      for (const std::uint64_t v : inputs) acc ^= v;
      return type == CellType::kXor ? acc : ~acc;
    }
    default:
      throw std::invalid_argument(
          "eval_cell_word: not a combinational cell: " + std::string(to_string(type)));
  }
}

}  // namespace polaris::netlist
