#pragma once
// Gate-level RTL intermediate representation.
//
// Level 4 of the Symbad flow produces RTL; our IR is a synchronous gate
// netlist: primary inputs, one implicit clock, D flip-flops with reset
// values, and combinational gates (AND/OR/XOR/NOT/MUX/constants).
//
// Construction enforces that a gate's operands already exist, so the
// combinational part is acyclic by construction and can be evaluated in
// creation order; sequential loops close only through flip-flops
// (`connect_next`).

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace symbad::rtl {

/// Index of a net (the output of a gate) within a netlist.
using Net = int;

enum class GateKind : std::uint8_t {
  const0,
  const1,
  input,
  and_gate,
  or_gate,
  xor_gate,
  not_gate,
  mux,  ///< a ? b : c
  dff,  ///< state element; `a` is the next-state net once connected
};

/// Number of GateKind enumerators, for flat per-kind tables.
inline constexpr std::size_t kGateKindCount = 9;

/// Index of a GateKind in a flat per-kind table.
[[nodiscard]] constexpr std::size_t gate_index(GateKind k) noexcept {
  return static_cast<std::size_t>(k);
}

// A new enumerator must bump kGateKindCount with it, or every flat table
// (gate_histogram and friends) indexes out of bounds.
static_assert(gate_index(GateKind::dff) + 1 == kGateKindCount,
              "kGateKindCount is out of sync with the GateKind enum");

/// Gate count per kind, indexed by `gate_index` — a flat array instead of
/// a std::map so per-pass statistics (the optimizer queries it after every
/// pass) cost no allocation.
using GateHistogram = std::array<std::size_t, kGateKindCount>;

struct Gate {
  GateKind kind = GateKind::const0;
  Net a = -1;  ///< first operand / mux select / dff next-state
  Net b = -1;  ///< second operand / mux "then"
  Net c = -1;  ///< mux "else"
  bool init = false;  ///< dff reset value
};

/// What every netlist walker needs to know about a gate kind. The one
/// operand table: traversals, validation and fault-site enumeration read
/// it instead of switching over GateKind themselves.
struct KindInfo {
  const char* name;
  unsigned arity;      ///< operand slots read: a, then b, then c
  bool combinational;  ///< and/or/xor/not/mux: evaluated from operands
  bool source;         ///< input/dff: its value comes from outside the pass
  bool fault_site;     ///< carries stuck-at faults (everything but const/input)
  double area;         ///< unit-area weight, loosely standard-cell sized
};

inline constexpr std::array<KindInfo, kGateKindCount> kKindInfo{{
    {"const0", 0, false, false, false, 0.0},
    {"const1", 0, false, false, false, 0.0},
    {"input", 0, false, true, false, 0.0},
    {"and", 2, true, false, true, 1.0},
    {"or", 2, true, false, true, 1.0},
    {"xor", 2, true, false, true, 1.5},
    {"not", 1, true, false, true, 0.5},
    {"mux", 3, true, false, true, 2.0},
    // A flip-flop reads its next-state net `a` only at the clock edge.
    {"dff", 1, false, true, true, 4.0},
}};

/// Table row of `k`; `k` must be a valid enumerator (see `to_string` for
/// the guarded lookup).
[[nodiscard]] constexpr const KindInfo& kind_info(GateKind k) noexcept {
  return kKindInfo[gate_index(k)];
}
[[nodiscard]] constexpr bool is_combinational(GateKind k) noexcept {
  return kind_info(k).combinational;
}
[[nodiscard]] constexpr bool is_source(GateKind k) noexcept { return kind_info(k).source; }
[[nodiscard]] constexpr bool is_fault_site(GateKind k) noexcept {
  return kind_info(k).fault_site;
}

[[nodiscard]] constexpr const char* to_string(GateKind k) noexcept {
  return gate_index(k) < kGateKindCount ? kind_info(k).name : "?";
}

/// Calls `visit(net)` for each operand slot `g`'s kind reads, in slot order.
/// An unconnected flip-flop passes -1.
template <class Visit>
constexpr void for_each_operand(const Gate& g, Visit&& visit) {
  const unsigned arity = kind_info(g.kind).arity;
  if (arity > 0) visit(g.a);
  if (arity > 1) visit(g.b);
  if (arity > 2) visit(g.c);
}

/// A synchronous gate-level netlist.
class Netlist {
public:
  explicit Netlist(std::string name = "netlist") : name_{std::move(name)} {}

  // ------------------------------------------------------ construction
  [[nodiscard]] Net constant(bool value);
  [[nodiscard]] Net add_input(std::string name);
  [[nodiscard]] Net add_and(Net a, Net b);
  [[nodiscard]] Net add_or(Net a, Net b);
  [[nodiscard]] Net add_xor(Net a, Net b);
  [[nodiscard]] Net add_not(Net a);
  [[nodiscard]] Net add_mux(Net sel, Net then_net, Net else_net);
  /// Creates a flip-flop with a reset value; its next-state input is
  /// connected later with `connect_next` (allowing sequential loops).
  [[nodiscard]] Net add_dff(bool init, std::string name = {});
  void connect_next(Net dff, Net next);
  /// Re-points an already-connected flip-flop's next-state input. Unlike
  /// `connect_next` this tolerates (and expects) a previous connection —
  /// it exists for the incremental optimizer, which splices a re-optimized
  /// fault cone into a copy of an optimized baseline by redirecting the
  /// in-cone flip-flops' next-state nets at the spliced logic.
  void reconnect_next(Net dff, Net next);

  /// Registers `net` as a named primary output.
  void set_output(const std::string& name, Net net);

  // --------------------------------------------------------- accessors
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t gate_count() const noexcept { return gates_.size(); }
  [[nodiscard]] const Gate& gate(Net n) const { return gates_.at(static_cast<std::size_t>(n)); }
  [[nodiscard]] std::span<const Gate> gates() const noexcept { return gates_; }
  [[nodiscard]] const std::vector<Net>& inputs() const noexcept { return inputs_; }
  [[nodiscard]] const std::vector<Net>& flip_flops() const noexcept { return dffs_; }
  [[nodiscard]] const std::map<std::string, Net>& outputs() const noexcept { return outputs_; }
  [[nodiscard]] Net input(const std::string& name) const;
  [[nodiscard]] Net output(const std::string& name) const;
  [[nodiscard]] const std::string& net_name(Net n) const;
  [[nodiscard]] bool has_input(const std::string& name) const {
    return input_index_.contains(name);
  }

  // -------------------------------------------------------- statistics
  // (Structural closures — cones of influence, fault cones — are in
  // rtl/cone.hpp.)

  /// Count of gates per kind — the "silicon usage" proxy used by the
  /// architecture-exploration grading; index with `gate_index(kind)`.
  [[nodiscard]] GateHistogram gate_histogram() const;
  /// Unit-area estimate (gate-count weighted by kind).
  [[nodiscard]] double area_estimate() const;

  /// Throws std::logic_error if any flip-flop lacks a next-state net or an
  /// operand index is out of range.
  void validate() const;

private:
  Net add_gate(GateKind kind, Net a = -1, Net b = -1, Net c = -1);
  void check_operand(Net n) const;

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<Net> inputs_;
  std::vector<Net> dffs_;
  std::map<std::string, Net> outputs_;
  std::map<std::string, Net> input_index_;
  std::map<Net, std::string> names_;
};

/// The netlist evaluator: 64 independent lanes per `uint64_t` word, one
/// word per net (`words` is indexed like the gates). Declaration order is
/// topological, so one forward pass suffices. The caller owns the source
/// words — inputs and flip-flop outputs — and fills them before the call;
/// the pass writes every constant and combinational word. With force masks
/// (both spans sized like the gates, or both empty) every net's word,
/// sources included, becomes `(v & keep[i]) | force[i]` before its readers
/// see it: keep = 0, force = ~0 is a stuck-at-1 in every lane.
void evaluate(const Netlist& netlist, std::span<std::uint64_t> words,
              std::span<const std::uint64_t> keep = {},
              std::span<const std::uint64_t> force = {});

/// Two-valued cycle-accurate simulator for a Netlist, with stuck-at fault
/// injection (used by PCC and SAT-ATPG fault grading): a one-lane user of
/// `evaluate`.
class Simulator {
public:
  explicit Simulator(const Netlist& netlist);

  // Evaluation is lazy: every change of inputs, state or faults (including
  // `step()`, `reset()` and `force_state()`) only marks the combinational
  // values stale, and the first read afterwards (`value`, `output`,
  // `eval`) runs the one evaluation pass. A read always sees the current
  // inputs and state.

  /// Returns flip-flops to their reset values and clears input values.
  void reset();
  void set_input(const std::string& name, bool value);
  void set_input(Net input_net, bool value);
  /// Evaluates the combinational logic with current inputs/state (a no-op
  /// when nothing changed since the last evaluation).
  void eval() const;
  /// Evaluates, then clocks all flip-flops once.
  void step();

  [[nodiscard]] bool value(Net n) const {
    eval();
    return (values_.at(static_cast<std::size_t>(n)) & 1) != 0;
  }
  [[nodiscard]] bool output(const std::string& name) const;
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

  /// Forces `net` to `value` during every evaluation until cleared.
  void inject_stuck_at(Net net, bool value);
  void clear_faults();
  [[nodiscard]] bool has_faults() const noexcept { return fault_count_ > 0; }

  /// Flip-flop state packed LSB-first in flip-flop declaration order
  /// (explicit-state model checking). Requires <= 64 flip-flops.
  [[nodiscard]] std::uint64_t state_bits() const;
  /// Overwrites the flip-flop state.
  void force_state(std::uint64_t bits);
  /// Drives all primary inputs from packed bits (declaration order).
  /// Requires <= 64 inputs.
  void force_inputs(std::uint64_t bits);

private:
  const Netlist* netlist_;
  // Evaluation cache, refreshed by the const eval() on the first read.
  mutable std::vector<std::uint64_t> values_;  // evaluated word per net (lane 0)
  mutable bool dirty_ = true;  // sources or faults changed since the last eval()
  std::vector<std::uint64_t> sources_;  // input values and dff state, per net
  std::vector<std::uint64_t> keep_;     // force masks, per net
  std::vector<std::uint64_t> force_;
  std::uint64_t cycles_ = 0;
  int fault_count_ = 0;
};

}  // namespace symbad::rtl
