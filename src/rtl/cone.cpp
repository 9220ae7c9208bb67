#include "rtl/cone.hpp"

namespace symbad::rtl {

ConeTracer::ConeTracer(const Netlist& netlist) : netlist_{&netlist} {
  comb_fanout_.resize(netlist.gate_count());
  for (std::size_t i = 0; i < netlist.gate_count(); ++i) {
    const Gate& g = netlist.gate(static_cast<Net>(i));
    const Net reader = static_cast<Net>(i);
    if (g.kind == GateKind::dff) {
      dff_edges_.emplace_back(g.a, reader);
    } else {
      for_each_operand(g, [&](Net operand) {
        comb_fanout_[static_cast<std::size_t>(operand)].push_back(reader);
      });
    }
  }
}

std::vector<std::vector<char>> ConeTracer::fault_cones(Net fault_net, int frames) const {
  const std::size_t n = netlist_->gate_count();
  std::vector<std::vector<char>> cone(static_cast<std::size_t>(frames),
                                      std::vector<char>(n, 0));
  std::vector<Net> frontier;
  for (int f = 0; f < frames; ++f) {
    auto& marks = cone[static_cast<std::size_t>(f)];
    // The stuck-at fault forces its net in every frame; flip-flops whose
    // next-state fell in the previous frame's cone differ from this frame on.
    frontier.clear();
    frontier.push_back(fault_net);
    if (f > 0) {
      const auto& prev = cone[static_cast<std::size_t>(f - 1)];
      for (const auto& [next_net, dff_net] : dff_edges_) {
        if (prev[static_cast<std::size_t>(next_net)] != 0) frontier.push_back(dff_net);
      }
    }
    for (const Net seed : frontier) marks[static_cast<std::size_t>(seed)] = 1;
    while (!frontier.empty()) {
      const Net net = frontier.back();
      frontier.pop_back();
      for (const Net reader : comb_fanout_[static_cast<std::size_t>(net)]) {
        auto& mark = marks[static_cast<std::size_t>(reader)];
        if (mark == 0) {
          mark = 1;
          frontier.push_back(reader);
        }
      }
    }
  }
  return cone;
}

std::vector<char> ConeTracer::fault_cone_closure(
    const std::vector<Net>& fault_sites) const {
  std::vector<char> marks(netlist_->gate_count(), 0);
  std::vector<Net> frontier;
  const auto mark = [&](Net n) {
    auto& m = marks[static_cast<std::size_t>(n)];
    if (m == 0) {
      m = 1;
      frontier.push_back(n);
    }
  };
  for (const Net seed : fault_sites) mark(seed);
  // Interleave the combinational BFS with the register crossings until
  // neither grows the set: a marked next-state net corrupts its flip-flop
  // from the following frame on, and the flip-flop's readers after that.
  while (!frontier.empty()) {
    while (!frontier.empty()) {
      const Net net = frontier.back();
      frontier.pop_back();
      for (const Net reader : comb_fanout_[static_cast<std::size_t>(net)]) mark(reader);
    }
    for (const auto& [next_net, dff_net] : dff_edges_) {
      if (marks[static_cast<std::size_t>(next_net)] != 0) mark(dff_net);
    }
  }
  return marks;
}

}  // namespace symbad::rtl
