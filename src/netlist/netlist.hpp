// Gate-level netlist IR.
//
// Design D in the paper is a mapped gate-level netlist; POLARIS converts it
// to a graph Gr = (V, E) with V = gates and E = interconnections (Sec. IV-A).
// This class is both: gates and nets are stored in flat arrays addressed by
// dense ids, so the graph view, the simulator, and the feature extractor can
// all index in O(1) without building separate structures.
//
// Invariants (checked by validate()):
//   * every net has exactly one driver gate,
//   * every gate input reads an existing net,
//   * fan-in arity respects arity_of(type),
//   * the combinational part is acyclic (DFF q-outputs act as sources).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "netlist/cell.hpp"

namespace polaris::netlist {

using GateId = std::uint32_t;
using NetId = std::uint32_t;

inline constexpr GateId kNoGate = std::numeric_limits<GateId>::max();
inline constexpr NetId kNoNet = std::numeric_limits<NetId>::max();

struct Gate {
  CellType type = CellType::kBuf;
  std::vector<NetId> inputs;
  NetId output = kNoNet;
  /// Logical-gate group used for leakage accounting. In an original design
  /// each gate is its own group; cells created by expanding gate g into a
  /// masked composite inherit group = g so per-gate TVLA reports stay
  /// aligned with the unmasked design (Sec. IV-C).
  GateId group = kNoGate;
};

struct Net {
  std::string name;
  GateId driver = kNoGate;
  std::vector<GateId> fanouts;
};

class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  // --- construction -------------------------------------------------------

  /// Creates an undriven net. Mostly internal; prefer the add_* helpers,
  /// which create the driven output net for you.
  NetId add_net(std::string name = {});

  /// Adds a gate driving a fresh net and returns that net.
  NetId add_cell(CellType type, std::span<const NetId> inputs,
                 std::string net_name = {});
  NetId add_cell(CellType type, std::initializer_list<NetId> inputs,
                 std::string net_name = {});

  /// Adds a gate that drives an existing (currently undriven) net.
  GateId add_cell_driving(CellType type, std::span<const NetId> inputs,
                          NetId output);

  /// Primary input: an kInput source cell + its net.
  NetId add_input(std::string name);
  /// Fresh-randomness source (mask share).
  NetId add_rand(std::string name = {});
  NetId add_const(bool value);

  /// Marks a net as a primary output (a net may be an output and still have
  /// internal fanout).
  void mark_output(NetId net, std::string name = {});

  /// Registers an existing kInput-driven net in the primary-input list.
  /// Used by netlist rewrites (masking) that rebuild designs gate by gate.
  void mark_input(NetId net);

  // --- accessors ----------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] std::size_t gate_count() const { return gates_.size(); }
  [[nodiscard]] std::size_t net_count() const { return nets_.size(); }

  [[nodiscard]] const Gate& gate(GateId id) const { return gates_[id]; }
  [[nodiscard]] Gate& gate(GateId id) { return gates_[id]; }
  [[nodiscard]] const Net& net(NetId id) const { return nets_[id]; }
  [[nodiscard]] Net& net(NetId id) { return nets_[id]; }

  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  [[nodiscard]] const std::vector<Net>& nets() const { return nets_; }

  [[nodiscard]] const std::vector<NetId>& primary_inputs() const {
    return primary_inputs_;
  }
  [[nodiscard]] const std::vector<NetId>& primary_outputs() const {
    return primary_outputs_;
  }

  // --- integrity ----------------------------------------------------------

  /// Throws std::runtime_error describing the first violated invariant.
  void validate() const;

  /// Topological order over gates: sources first, then combinational gates
  /// in dependency order, then DFFs (which sample at the end of a cycle).
  /// Throws std::runtime_error if a combinational cycle exists.
  [[nodiscard]] std::vector<GateId> topological_order() const;

  /// Logic level per gate: sources/DFF = 0, combinational = 1 + max(input
  /// levels). Computed from topological_order().
  [[nodiscard]] std::vector<std::uint32_t> levels() const;

 private:
  std::string name_;
  std::vector<Gate> gates_;
  std::vector<Net> nets_;
  std::vector<NetId> primary_inputs_;
  std::vector<NetId> primary_outputs_;
};

}  // namespace polaris::netlist
