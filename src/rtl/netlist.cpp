#include "rtl/netlist.hpp"

#include <algorithm>

namespace symbad::rtl {

// ------------------------------------------------------------- Netlist

Net Netlist::add_gate(GateKind kind, Net a, Net b, Net c) {
  gates_.push_back(Gate{kind, a, b, c, false});
  return static_cast<Net>(gates_.size()) - 1;
}

void Netlist::check_operand(Net n) const {
  if (n < 0 || static_cast<std::size_t>(n) >= gates_.size()) {
    throw std::out_of_range{"rtl: operand net does not exist yet"};
  }
}

Net Netlist::constant(bool value) {
  return add_gate(value ? GateKind::const1 : GateKind::const0);
}

Net Netlist::add_input(std::string name) {
  if (input_index_.contains(name)) {
    throw std::invalid_argument{"rtl: duplicate input name '" + name + "'"};
  }
  const Net n = add_gate(GateKind::input);
  inputs_.push_back(n);
  input_index_.emplace(name, n);
  names_.emplace(n, std::move(name));
  return n;
}

Net Netlist::add_and(Net a, Net b) {
  check_operand(a);
  check_operand(b);
  return add_gate(GateKind::and_gate, a, b);
}

Net Netlist::add_or(Net a, Net b) {
  check_operand(a);
  check_operand(b);
  return add_gate(GateKind::or_gate, a, b);
}

Net Netlist::add_xor(Net a, Net b) {
  check_operand(a);
  check_operand(b);
  return add_gate(GateKind::xor_gate, a, b);
}

Net Netlist::add_not(Net a) {
  check_operand(a);
  return add_gate(GateKind::not_gate, a);
}

Net Netlist::add_mux(Net sel, Net then_net, Net else_net) {
  check_operand(sel);
  check_operand(then_net);
  check_operand(else_net);
  return add_gate(GateKind::mux, sel, then_net, else_net);
}

Net Netlist::add_dff(bool init, std::string name) {
  const Net n = add_gate(GateKind::dff);
  gates_.back().init = init;
  dffs_.push_back(n);
  if (!name.empty()) names_.emplace(n, std::move(name));
  return n;
}

void Netlist::connect_next(Net dff, Net next) {
  check_operand(dff);
  check_operand(next);
  auto& g = gates_[static_cast<std::size_t>(dff)];
  if (g.kind != GateKind::dff) throw std::invalid_argument{"rtl: connect_next on non-dff"};
  if (g.a >= 0) throw std::logic_error{"rtl: dff next-state already connected"};
  g.a = next;
}

void Netlist::reconnect_next(Net dff, Net next) {
  check_operand(dff);
  check_operand(next);
  auto& g = gates_[static_cast<std::size_t>(dff)];
  if (g.kind != GateKind::dff) throw std::invalid_argument{"rtl: reconnect_next on non-dff"};
  g.a = next;
}

void Netlist::set_output(const std::string& name, Net net) {
  check_operand(net);
  outputs_[name] = net;
}

Net Netlist::input(const std::string& name) const {
  const auto it = input_index_.find(name);
  if (it == input_index_.end()) throw std::out_of_range{"rtl: no input '" + name + "'"};
  return it->second;
}

Net Netlist::output(const std::string& name) const {
  const auto it = outputs_.find(name);
  if (it == outputs_.end()) throw std::out_of_range{"rtl: no output '" + name + "'"};
  return it->second;
}

const std::string& Netlist::net_name(Net n) const {
  static const std::string kEmpty;
  const auto it = names_.find(n);
  return it == names_.end() ? kEmpty : it->second;
}

GateHistogram Netlist::gate_histogram() const {
  GateHistogram hist{};
  for (const auto& g : gates_) ++hist[gate_index(g.kind)];
  return hist;
}

double Netlist::area_estimate() const {
  double area = 0.0;
  for (const auto& g : gates_) area += kind_info(g.kind).area;
  return area;
}

void Netlist::validate() const {
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const auto& g = gates_[i];
    if (g.kind == GateKind::dff && g.a < 0) {
      throw std::logic_error{"rtl: flip-flop " + std::to_string(i) +
                             " has no next-state net"};
    }
    // Sequential loops close through flip-flops, so only combinational
    // operands must be declared earlier.
    const bool comb = is_combinational(g.kind);
    for_each_operand(g, [&](Net n) {
      if (n < 0 || static_cast<std::size_t>(n) >= gates_.size()) {
        throw std::logic_error{"rtl: gate " + std::to_string(i) + " has invalid operand"};
      }
      if (comb && static_cast<std::size_t>(n) >= i) {
        throw std::logic_error{"rtl: combinational gate " + std::to_string(i) +
                               " references a later net"};
      }
    });
  }
}

// ----------------------------------------------------------- evaluator

void evaluate(const Netlist& netlist, std::span<std::uint64_t> words,
              std::span<const std::uint64_t> keep, std::span<const std::uint64_t> force) {
  const std::span<const Gate> gates = netlist.gates();
  if (words.size() != gates.size() || keep.size() != force.size() ||
      (!force.empty() && force.size() != gates.size())) {
    throw std::invalid_argument{"rtl: evaluate spans must match the gate count"};
  }
  const bool forced = !force.empty();
  std::uint64_t* const w = words.data();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    const auto op = [w](Net n) { return w[static_cast<std::size_t>(n)]; };
    std::uint64_t v = 0;
    switch (g.kind) {
      case GateKind::const0: v = 0; break;
      case GateKind::const1: v = ~std::uint64_t{0}; break;
      case GateKind::input:
      case GateKind::dff: v = w[i]; break;  // caller-owned source word
      case GateKind::and_gate: v = op(g.a) & op(g.b); break;
      case GateKind::or_gate: v = op(g.a) | op(g.b); break;
      case GateKind::xor_gate: v = op(g.a) ^ op(g.b); break;
      case GateKind::not_gate: v = ~op(g.a); break;
      case GateKind::mux: v = (op(g.a) & op(g.b)) | (~op(g.a) & op(g.c)); break;
    }
    if (forced) v = (v & keep[i]) | force[i];
    w[i] = v;
  }
}

// ----------------------------------------------------------- Simulator

Simulator::Simulator(const Netlist& netlist) : netlist_{&netlist} {
  netlist.validate();
  values_.assign(netlist.gate_count(), 0);
  sources_.assign(netlist.gate_count(), 0);
  keep_.assign(netlist.gate_count(), ~std::uint64_t{0});
  force_.assign(netlist.gate_count(), 0);
  reset();
}

void Simulator::reset() {
  std::fill(sources_.begin(), sources_.end(), 0);
  for (const Net d : netlist_->flip_flops()) {
    sources_[static_cast<std::size_t>(d)] = netlist_->gate(d).init ? 1 : 0;
  }
  cycles_ = 0;
  dirty_ = true;
}

void Simulator::set_input(const std::string& name, bool value) {
  set_input(netlist_->input(name), value);
}

void Simulator::set_input(Net input_net, bool value) {
  if (input_net < 0 || static_cast<std::size_t>(input_net) >= sources_.size() ||
      netlist_->gate(input_net).kind != GateKind::input) {
    throw std::invalid_argument{"rtl: not an input net"};
  }
  sources_[static_cast<std::size_t>(input_net)] = value ? 1 : 0;
  dirty_ = true;
}

void Simulator::eval() const {
  if (!dirty_) return;
  for (const Net in : netlist_->inputs()) {
    values_[static_cast<std::size_t>(in)] = sources_[static_cast<std::size_t>(in)];
  }
  for (const Net d : netlist_->flip_flops()) {
    values_[static_cast<std::size_t>(d)] = sources_[static_cast<std::size_t>(d)];
  }
  if (fault_count_ > 0) {
    evaluate(*netlist_, values_, keep_, force_);
  } else {
    evaluate(*netlist_, values_);
  }
  dirty_ = false;
}

void Simulator::step() {
  eval();
  for (const Net d : netlist_->flip_flops()) {
    sources_[static_cast<std::size_t>(d)] =
        values_[static_cast<std::size_t>(netlist_->gate(d).a)] & 1;
  }
  ++cycles_;
  dirty_ = true;  // the next read evaluates the new state
}

bool Simulator::output(const std::string& name) const {
  return value(netlist_->output(name));
}

void Simulator::inject_stuck_at(Net net, bool value) {
  if (net < 0 || static_cast<std::size_t>(net) >= force_.size()) {
    throw std::out_of_range{"rtl: fault on unknown net"};
  }
  const auto i = static_cast<std::size_t>(net);
  if (keep_[i] != 0) ++fault_count_;
  keep_[i] = 0;
  force_[i] = value ? ~std::uint64_t{0} : 0;
  dirty_ = true;
}

void Simulator::clear_faults() {
  std::fill(keep_.begin(), keep_.end(), ~std::uint64_t{0});
  std::fill(force_.begin(), force_.end(), 0);
  fault_count_ = 0;
  dirty_ = true;
}

std::uint64_t Simulator::state_bits() const {
  const auto& dffs = netlist_->flip_flops();
  if (dffs.size() > 64) {
    throw std::logic_error{"rtl: state_bits requires <= 64 flip-flops"};
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    bits |= (sources_[static_cast<std::size_t>(dffs[i])] & 1) << i;
  }
  return bits;
}

void Simulator::force_state(std::uint64_t bits) {
  const auto& dffs = netlist_->flip_flops();
  if (dffs.size() > 64) {
    throw std::logic_error{"rtl: force_state requires <= 64 flip-flops"};
  }
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    sources_[static_cast<std::size_t>(dffs[i])] = (bits >> i) & 1;
  }
  dirty_ = true;
}

void Simulator::force_inputs(std::uint64_t bits) {
  const auto& ins = netlist_->inputs();
  if (ins.size() > 64) {
    throw std::logic_error{"rtl: force_inputs requires <= 64 inputs"};
  }
  for (std::size_t i = 0; i < ins.size(); ++i) {
    sources_[static_cast<std::size_t>(ins[i])] = (bits >> i) & 1;
  }
  dirty_ = true;
}

}  // namespace symbad::rtl
