#include "netlist/netlist_io.hpp"

#include <stdexcept>
#include <string>

namespace polaris::netlist {

void write_netlist(serialize::Writer& out, const Netlist& netlist) {
  out.begin_chunk("NETL");
  out.str(netlist.name());
  out.u64(netlist.net_count());
  for (const Net& net : netlist.nets()) out.str(net.name);
  out.u64(netlist.gate_count());
  for (const Gate& gate : netlist.gates()) {
    out.u8(static_cast<std::uint8_t>(gate.type));
    out.u64(gate.inputs.size());
    for (const NetId input : gate.inputs) out.u32(input);
    out.u32(gate.output);
    out.u32(gate.group);
  }
  out.u64(netlist.primary_inputs().size());
  for (const NetId net : netlist.primary_inputs()) out.u32(net);
  out.u64(netlist.primary_outputs().size());
  for (const NetId net : netlist.primary_outputs()) out.u32(net);
  out.end_chunk();
}

Netlist read_netlist(serialize::Reader& in) {
  in.enter_chunk("NETL");
  Netlist netlist(in.str());
  // A net is at least a length-prefixed name (8 bytes), a gate at least
  // 17 bytes, a port id exactly 4.
  const std::uint64_t net_count = in.count(8, "netlist net");
  for (std::uint64_t n = 0; n < net_count; ++n) (void)netlist.add_net(in.str());
  const std::uint64_t gate_count = in.count(17, "netlist gate");
  std::vector<NetId> inputs;
  for (std::uint64_t g = 0; g < gate_count; ++g) {
    const std::uint8_t raw_type = in.u8();
    if (raw_type >= kCellTypeCount) {
      throw std::runtime_error("polaris netlist: unknown cell type " +
                               std::to_string(raw_type));
    }
    const std::uint64_t fan_in = in.count(4, "gate fan-in");
    inputs.clear();
    inputs.reserve(fan_in);
    for (std::uint64_t i = 0; i < fan_in; ++i) inputs.push_back(in.u32());
    const NetId output = in.u32();
    const GateId group = in.u32();
    if (group != kNoGate && group >= gate_count) {
      throw std::runtime_error("polaris netlist: gate group out of range");
    }
    // add_cell_driving re-checks arity, net ranges, and single-driver-ship,
    // and appends at exactly GateId g (the ascending-id invariant).
    const GateId id = netlist.add_cell_driving(
        static_cast<CellType>(raw_type), inputs, output);
    if (id != static_cast<GateId>(g)) {
      throw std::runtime_error("polaris netlist: gate id drift on decode");
    }
    netlist.gate(id).group = group;
  }
  const std::uint64_t n_inputs = in.count(4, "netlist input");
  for (std::uint64_t i = 0; i < n_inputs; ++i) netlist.mark_input(in.u32());
  const std::uint64_t n_outputs = in.count(4, "netlist output");
  // Empty rename: the serialized net names already carry the port names.
  for (std::uint64_t i = 0; i < n_outputs; ++i) netlist.mark_output(in.u32());
  in.exit_chunk();
  netlist.validate();
  return netlist;
}

}  // namespace polaris::netlist
