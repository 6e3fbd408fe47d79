#include "masking/masking.hpp"

#include <array>
#include <stdexcept>

namespace polaris::masking {

using netlist::CellType;
using netlist::GateId;
using netlist::Netlist;
using netlist::NetId;

namespace {

/// A signal in the masked domain: the carried net holds value ^ mask.
/// mask == kNoNet means the signal is in the clear.
struct Share {
  NetId value = netlist::kNoNet;
  NetId mask = netlist::kNoNet;

  [[nodiscard]] bool masked() const { return mask != netlist::kNoNet; }
};

/// Builds the rewritten design. Gates are emitted in topological order so
/// every reader knows whether its input nets are masked. Boundary-crossing
/// rules (see masking.hpp):
///   masked -> masked  : shares pass through, no demasking anywhere;
///   masked -> clear   : a demask XOR is inserted at the reader's input and
///                       charged to the reader's group (input-stage
///                       demasking inside the receiving cell);
///   masked -> primary output: a demask XOR restores the clear value,
///                       charged to the driver's group (output boundary).
class Rewriter {
 public:
  Rewriter(const Netlist& original, Scheme scheme, MaskingResult& result)
      : original_(original), scheme_(scheme), result_(result),
        out_(result.design), net_mask_(original.net_count(), netlist::kNoNet) {}

  void run() {
    for (NetId n = 0; n < original_.net_count(); ++n) {
      out_.add_net(original_.net(n).name);
    }
    for (const GateId g : original_.topological_order()) {
      group_ = g;
      if (result_.masked[g]) emit_masked(g);
      else emit_clear(g);
    }
    for (const NetId n : original_.primary_inputs()) out_.mark_input(n);
    for (const NetId n : original_.primary_outputs()) {
      if (net_mask_[n] == netlist::kNoNet) {
        out_.mark_output(n);
      } else {
        group_ = original_.net(n).driver;  // boundary cost stays with driver
        out_.mark_output(cell(CellType::kXor, {n, net_mask_[n]}));
      }
    }
    result_.added_cells = out_.gate_count() - original_.gate_count();
  }

 private:
  // --- cell emission helpers ----------------------------------------------

  NetId cell(CellType type, std::initializer_list<NetId> inputs) {
    const NetId net = out_.add_cell(type, inputs);
    out_.gate(out_.net(net).driver).group = group_;
    return net;
  }

  NetId fresh_mask() {
    const NetId net = out_.add_rand();
    out_.gate(out_.net(net).driver).group = group_;
    ++result_.added_rand_bits;
    return net;
  }

  /// Ensures a signal carries a mask, re-sharing clear signals with fresh
  /// randomness (the XOR's toggles are randomized by the fresh mask).
  Share reshare(const Share& s) {
    if (s.masked()) return s;
    const NetId x = fresh_mask();
    return {cell(CellType::kXor, {s.value, x}), x};
  }

  [[nodiscard]] Share input_share(NetId n) const { return {n, net_mask_[n]}; }

  // --- masked operators ------------------------------------------------------

  /// Masked NOT: inverting the carried value inverts the clear value while
  /// the mask rides through.
  Share masked_not(const Share& s) {
    return {cell(CellType::kNot, {s.value}), s.mask};
  }

  /// Masked AND via Trichina Eq. 5 or first-order DOM. Both consume the
  /// operand shares directly and emit a freshly-masked product.
  Share masked_and(Share a, Share b) {
    a = reshare(a);
    b = reshare(b);
    const NetId x = a.mask;
    const NetId y = b.mask;
    const NetId z = fresh_mask();
    if (scheme_ == Scheme::kTrichina) {
      // Eq. 5, with its exact parenthesisation: no intermediate net ever
      // carries an unmasked product term.
      const NetId xy = cell(CellType::kAnd, {x, y});
      const NetId xy_z = cell(CellType::kXor, {xy, z});
      const NetId xb = cell(CellType::kAnd, {x, b.value});
      const NetId xb_xyz = cell(CellType::kXor, {xb, xy_z});
      const NetId ab = cell(CellType::kAnd, {a.value, b.value});
      const NetId partial = cell(CellType::kXor, {ab, xb_xyz});
      const NetId ya = cell(CellType::kAnd, {y, a.value});
      return {cell(CellType::kXor, {partial, ya}), z};
    }
    // DOM-indep: domains (x, a.value) x (y, b.value); cross terms refreshed
    // with z; output shares (c0, c1) re-expressed as value = c1, mask = c0.
    const NetId t00 = cell(CellType::kAnd, {x, y});
    const NetId t01 = cell(CellType::kAnd, {x, b.value});
    const NetId t10 = cell(CellType::kAnd, {a.value, y});
    const NetId t11 = cell(CellType::kAnd, {a.value, b.value});
    const NetId c0 = cell(CellType::kXor, {t00, cell(CellType::kXor, {t01, z})});
    const NetId c1 = cell(CellType::kXor, {t11, cell(CellType::kXor, {t10, z})});
    return {c1, c0};
  }

  Share masked_or(const Share& a, const Share& b) {
    return masked_not(masked_and(masked_not(a), masked_not(b)));
  }

  /// Masked XOR is linear: values and masks combine independently. At least
  /// one operand must carry a mask so the result stays masked.
  Share masked_xor(Share a, const Share& b) {
    if (!a.masked() && !b.masked()) a = reshare(a);
    const NetId value = cell(CellType::kXor, {a.value, b.value});
    NetId mask = netlist::kNoNet;
    if (a.masked() && b.masked()) {
      mask = cell(CellType::kXor, {a.mask, b.mask});
    } else {
      mask = a.masked() ? a.mask : b.mask;
    }
    return {value, mask};
  }

  // --- gate emission -----------------------------------------------------------

  void emit_masked(GateId g) {
    const netlist::Gate& gate = original_.gate(g);
    const auto fold = [&](auto&& op) {
      Share acc = input_share(gate.inputs[0]);
      for (std::size_t i = 1; i < gate.inputs.size(); ++i) {
        acc = op(acc, input_share(gate.inputs[i]));
      }
      return acc;
    };

    Share result;
    bool invert = false;
    switch (gate.type) {
      case CellType::kNand:
        invert = true;
        [[fallthrough]];
      case CellType::kAnd:
        result = fold([&](const Share& a, const Share& b) {
          return masked_and(a, b);
        });
        break;
      case CellType::kNor:
        invert = true;
        [[fallthrough]];
      case CellType::kOr:
        result = fold([&](const Share& a, const Share& b) {
          return masked_or(a, b);
        });
        break;
      case CellType::kXnor:
        invert = true;
        [[fallthrough]];
      case CellType::kXor:
        result = fold([&](const Share& a, const Share& b) {
          return masked_xor(a, b);
        });
        break;
      default:
        throw std::logic_error("emit_masked: unmaskable type");
    }
    if (invert) result = masked_not(result);
    // A single-input masked XOR chain can come back unmasked only if the
    // fold degenerated; guard by re-sharing.
    result = reshare(result);

    // The original output net now carries the MASKED value; its mask net is
    // recorded for readers and boundaries.
    out_.add_cell_driving(CellType::kBuf, std::array{result.value}, gate.output);
    out_.gate(out_.net(gate.output).driver).group = g;
    net_mask_[gate.output] = result.mask;
  }

  void emit_clear(GateId g) {
    const netlist::Gate& gate = original_.gate(g);
    std::vector<NetId> inputs;
    inputs.reserve(gate.inputs.size());
    for (const NetId n : gate.inputs) {
      if (net_mask_[n] == netlist::kNoNet) {
        inputs.push_back(n);
      } else {
        // Input-stage demasking inside the receiving cell: charged to THIS
        // gate's group - the clear value reappears here, and so does its
        // data-dependent switching.
        inputs.push_back(cell(CellType::kXor, {n, net_mask_[n]}));
      }
    }
    out_.add_cell_driving(gate.type, inputs, gate.output);
    out_.gate(out_.net(gate.output).driver).group = g;
  }

  const Netlist& original_;
  Scheme scheme_;
  MaskingResult& result_;
  Netlist& out_;
  std::vector<NetId> net_mask_;
  GateId group_ = netlist::kNoGate;
};

}  // namespace

MaskingResult apply_masking(const Netlist& original,
                            std::span<const GateId> targets, Scheme scheme) {
  MaskingResult result{Netlist(original.name() + "_masked"),
                       std::vector<bool>(original.gate_count(), false),
                       0, 0, 0, 0};
  for (const GateId g : targets) {
    if (g >= original.gate_count() ||
        !netlist::is_maskable(original.gate(g).type) || result.masked[g]) {
      ++result.skipped;
      continue;
    }
    result.masked[g] = true;
    ++result.masked_gates;
  }
  Rewriter(original, scheme, result).run();
  return result;
}

}  // namespace polaris::masking
