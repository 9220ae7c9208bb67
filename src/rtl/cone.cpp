#include "rtl/cone.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

namespace symbad::rtl {

namespace {

[[nodiscard]] bool in_range(std::span<const Gate> gates, Net n) noexcept {
  return n >= 0 && static_cast<std::size_t>(n) < gates.size();
}

/// Calls `visit(net)` for each in-range operand `g` reads. A flip-flop's
/// operand is its next-state net: this is the register crossing. A kind
/// outside the enum reads nothing.
template <class Visit>
void for_each_link(std::span<const Gate> gates, const Gate& g, Visit&& visit) {
  if (gate_index(g.kind) >= kGateKindCount) return;
  for_each_operand(g, [&](Net op) {
    if (in_range(gates, op)) visit(op);
  });
}

/// Adds `n` to the closure and the work list unless it is already marked.
void mark(std::vector<char>& marks, std::vector<Net>& frontier, Net n) {
  auto& m = marks[static_cast<std::size_t>(n)];
  if (m == 0) {
    m = 1;
    frontier.push_back(n);
  }
}

}  // namespace

std::vector<char> cone_of_influence(std::span<const Gate> gates,
                                    const std::vector<Net>& roots) {
  std::vector<char> cone(gates.size(), 0);
  std::vector<Net> frontier;
  for (const Net root : roots) {
    if (!in_range(gates, root)) throw std::out_of_range{"rtl: cone root net does not exist"};
    mark(cone, frontier, root);
  }
  while (!frontier.empty()) {
    const Gate& g = gates[static_cast<std::size_t>(frontier.back())];
    frontier.pop_back();
    for_each_link(gates, g, [&](Net op) { mark(cone, frontier, op); });
  }
  return cone;
}

ConeTracer::ConeTracer(std::span<const Gate> gates, std::span<const Net> registers)
    : fanout_begin_(gates.size() + 1, 0) {
  // Count each net's readers, prefix-sum the counts into end offsets, then
  // fill every slot by decrementing its offset back down to its start.
  const auto for_each_comb_edge = [&](auto&& edge) {
    for (std::size_t i = 0; i < gates.size(); ++i) {
      if (gates[i].kind == GateKind::dff) continue;  // crosses via dff_edges_
      for_each_link(gates, gates[i], [&](Net op) { edge(op, static_cast<Net>(i)); });
    }
  };
  for_each_comb_edge([&](Net op, Net) { ++fanout_begin_[static_cast<std::size_t>(op)]; });
  std::partial_sum(fanout_begin_.begin(), fanout_begin_.end(), fanout_begin_.begin());
  fanout_.resize(fanout_begin_.back());
  for_each_comb_edge([&](Net op, Net reader) {
    fanout_[--fanout_begin_[static_cast<std::size_t>(op)]] = reader;
  });
  dff_edges_.reserve(registers.size());
  for (const Net r : registers) {
    if (!in_range(gates, r) || gates[static_cast<std::size_t>(r)].kind != GateKind::dff) continue;
    for_each_link(gates, gates[static_cast<std::size_t>(r)],
                  [&](Net next) { dff_edges_.emplace_back(next, r); });
  }
}

void ConeTracer::check_seed(Net net) const {
  if (net < 0 || static_cast<std::size_t>(net) + 1 >= fanout_begin_.size()) {
    throw std::out_of_range{"rtl: fault site net " + std::to_string(net) +
                            " does not exist"};
  }
}

void ConeTracer::spread(std::vector<char>& marks, std::vector<Net>& frontier,
                        bool cross_registers) const {
  // Interleave the combinational walk with the register crossings until
  // neither grows the set: a marked next-state net corrupts its flip-flop
  // from the following frame on, and the flip-flop's readers after that.
  while (!frontier.empty()) {
    while (!frontier.empty()) {
      const auto net = static_cast<std::size_t>(frontier.back());
      frontier.pop_back();
      for (std::size_t k = fanout_begin_[net]; k < fanout_begin_[net + 1]; ++k) {
        mark(marks, frontier, fanout_[k]);
      }
    }
    if (!cross_registers) return;
    cross(marks, marks, frontier);
  }
}

void ConeTracer::cross(const std::vector<char>& from, std::vector<char>& marks,
                       std::vector<Net>& frontier) const {
  for (const auto& [next_net, dff_net] : dff_edges_) {
    if (from[static_cast<std::size_t>(next_net)] != 0) mark(marks, frontier, dff_net);
  }
}

std::vector<std::vector<char>> ConeTracer::fault_cones(Net fault_net, int frames) const {
  check_seed(fault_net);
  const std::size_t n = fanout_begin_.size() - 1;
  std::vector<std::vector<char>> cone(static_cast<std::size_t>(frames),
                                      std::vector<char>(n, 0));
  std::vector<Net> frontier;
  for (int f = 0; f < frames; ++f) {
    auto& marks = cone[static_cast<std::size_t>(f)];
    // The stuck-at fault forces its net in every frame; flip-flops whose
    // next-state fell in the previous frame's cone differ from this frame on.
    mark(marks, frontier, fault_net);
    if (f > 0) cross(cone[static_cast<std::size_t>(f - 1)], marks, frontier);
    spread(marks, frontier, false);
  }
  return cone;
}

std::vector<char> ConeTracer::fault_cone_closure(
    const std::vector<Net>& fault_sites) const {
  std::vector<char> marks(fanout_begin_.size() - 1, 0);
  std::vector<Net> frontier;
  for (const Net seed : fault_sites) {
    check_seed(seed);
    mark(marks, frontier, seed);
  }
  spread(marks, frontier, true);
  return marks;
}

}  // namespace symbad::rtl
