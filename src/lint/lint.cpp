#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "rtl/cnf.hpp"
#include "rtl/cone.hpp"
#include "sat/solver.hpp"
#include "verif/rng.hpp"

namespace symbad::lint {

namespace {

using rtl::Gate;
using rtl::GateKind;
using rtl::Net;

[[nodiscard]] bool kind_in_range(GateKind k) noexcept {
  return static_cast<std::size_t>(k) < rtl::kGateKindCount;
}

[[nodiscard]] std::string net_str(Net n) { return "net " + std::to_string(n); }

// --------------------------------------------------- const-net proving

/// Shared semantic machinery for Linter::semantic and FaultPruner: random
/// free-state signature simulation filters candidates, then one-frame
/// StateInit::free_state assumption solves prove them (the SatSweeper
/// recipe without the pairing — candidates here compare against constants).
struct ConstProof {
  std::vector<signed char> value;  ///< -1 unknown, 0/1 proven per net
  std::size_t candidates = 0;
  std::size_t proofs = 0;          ///< assumption solves issued
  std::uint64_t conflicts = 0;
};

ConstProof prove_constants(const rtl::Netlist& n, int rounds, std::uint64_t seed,
                           std::size_t max_proofs) {
  const std::size_t count = n.gate_count();
  ConstProof out;
  out.value.assign(count, -1);
  if (count == 0) return out;

  // Signature pass: 64 free-input/free-state patterns per round. A net
  // whose word never leaves all-zeros / all-ones across every round is a
  // const candidate; everything else is refuted for free.
  verif::Rng rng{seed};
  std::vector<std::uint64_t> sig(count, 0);
  std::vector<signed char> cand(count, -2);  // -2 unseen, -1 refuted, 0/1 value
  for (int r = 0; r < rounds; ++r) {
    // Inputs and flip-flops are free variables: one draw each, gate order.
    for (std::size_t i = 0; i < count; ++i) {
      if (rtl::is_source(n.gate(static_cast<Net>(i)).kind)) sig[i] = rng.next();
    }
    rtl::evaluate(n, sig);
    for (std::size_t i = 0; i < count; ++i) {
      const signed char v = sig[i] == 0 ? 0 : sig[i] == ~0ull ? 1 : -1;
      if (cand[i] == -2) {
        cand[i] = v;
      } else if (cand[i] >= 0 && cand[i] != v) {
        cand[i] = -1;
      }
    }
  }

  // Proof pass: one solver, one free-state frame, one assumption solve per
  // surviving candidate. UNSAT under "net != v" proves net == v over every
  // input and every (reachable or not) state.
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  rtl::CnfEncoder::Options eo;
  eo.state = rtl::StateInit::free_state;
  const rtl::Frame frame = encoder.encode(eo);
  for (std::size_t i = 0; i < count; ++i) {
    if (cand[i] < 0) continue;
    const GateKind k = n.gate(static_cast<Net>(i)).kind;
    // Constants are constant by kind (not a discovery), and input/dff
    // literals are free variables — never provably constant.
    if (!rtl::is_combinational(k)) continue;
    ++out.candidates;
    if (max_proofs != 0 && out.proofs >= max_proofs) continue;
    const sat::Lit l = frame.lit(static_cast<Net>(i));
    const sat::Lit counter = cand[i] == 1 ? ~l : l;
    ++out.proofs;
    const bool proven = solver.solve({counter}) == sat::Result::unsat;
    out.conflicts += solver.last_solve_statistics().conflicts;
    if (proven) out.value[i] = cand[i];
  }
  return out;
}

/// Proven-or-by-kind constant value of a net (-1 unknown).
[[nodiscard]] signed char const_of(const rtl::Netlist& n, Net net,
                                   const std::vector<signed char>& proven) {
  const GateKind k = n.gate(net).kind;
  if (k == GateKind::const0) return 0;
  if (k == GateKind::const1) return 1;
  return proven[static_cast<std::size_t>(net)];
}

/// Stuck-at sites no property over the roots of `cone` can see: both
/// polarities of a fault site outside the cone, the proven value of one
/// inside. Returns the count and the lowest such net (-1 when none).
[[nodiscard]] std::pair<std::size_t, Net> undetectable_sites(
    const rtl::Netlist& n, const std::vector<char>& cone,
    const std::vector<signed char>& proven) {
  std::pair<std::size_t, Net> sites{0, -1};
  for (std::size_t i = 0; i < n.gate_count(); ++i) {
    if (!rtl::is_fault_site(n.gate(static_cast<Net>(i)).kind)) continue;
    const std::size_t here = cone[i] == 0 ? 2 : proven[i] >= 0 ? 1 : 0;
    if (here > 0 && sites.second < 0) sites.second = static_cast<Net>(i);
    sites.first += here;
  }
  return sites;
}

}  // namespace

// ------------------------------------------------------------------ rules

const char* rule_id(Rule rule) noexcept {
  switch (rule) {
    case Rule::operand_range: return "NL001";
    case Rule::operand_arity: return "NL002";
    case Rule::bad_kind: return "NL003";
    case Rule::forward_ref: return "NL004";
    case Rule::comb_cycle: return "NL005";
    case Rule::undriven_dff: return "NL006";
    case Rule::dangling_logic: return "NL007";
    case Rule::autonomous_register: return "NL008";
    case Rule::const_net: return "NL101";
    case Rule::unreachable_mux_arm: return "NL102";
    case Rule::undetectable_fault: return "NL103";
    case Rule::graph_cycle: return "TG001";
    case Rule::graph_self_loop: return "TG002";
    case Rule::graph_duplicate_channel: return "TG003";
    case Rule::graph_isolated_task: return "TG004";
  }
  return "??";
}

const char* rule_name(Rule rule) noexcept {
  switch (rule) {
    case Rule::operand_range: return "operand-range";
    case Rule::operand_arity: return "operand-arity";
    case Rule::bad_kind: return "bad-kind";
    case Rule::forward_ref: return "forward-ref";
    case Rule::comb_cycle: return "comb-cycle";
    case Rule::undriven_dff: return "undriven-dff";
    case Rule::dangling_logic: return "dangling-logic";
    case Rule::autonomous_register: return "autonomous-register";
    case Rule::const_net: return "const-net";
    case Rule::unreachable_mux_arm: return "unreachable-mux-arm";
    case Rule::undetectable_fault: return "undetectable-fault";
    case Rule::graph_cycle: return "graph-cycle";
    case Rule::graph_self_loop: return "graph-self-loop";
    case Rule::graph_duplicate_channel: return "graph-duplicate-channel";
    case Rule::graph_isolated_task: return "graph-isolated-task";
  }
  return "?";
}

Severity rule_severity(Rule rule) noexcept {
  switch (rule) {
    case Rule::operand_range:
    case Rule::operand_arity:
    case Rule::bad_kind:
    case Rule::forward_ref:
    case Rule::comb_cycle:
    case Rule::undriven_dff:
    case Rule::graph_cycle:
    case Rule::graph_self_loop:
      return Severity::error;
    // Expected-by-construction structure: generator pool nets and
    // keep_all_nets optimizer output are dangling on purpose; free-running
    // registers and provable constants are style findings, not corruption.
    case Rule::dangling_logic:
    case Rule::autonomous_register:
    case Rule::const_net:
    case Rule::unreachable_mux_arm:
    case Rule::undetectable_fault:
    case Rule::graph_duplicate_channel:
    case Rule::graph_isolated_task:
      return Severity::warning;
  }
  return Severity::error;
}

// --------------------------------------------------------------- findings

std::size_t LintReport::error_count() const noexcept {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.severity == Severity::error) ++n;
  }
  return n;
}

std::size_t LintReport::warning_count() const noexcept {
  return findings.size() - error_count();
}

bool LintReport::has(Rule rule) const noexcept { return count(rule) > 0; }

std::size_t LintReport::count(Rule rule) const noexcept {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

std::string LintReport::to_string() const {
  std::string out;
  for (const auto& f : findings) {
    out += subject + ": " + rule_id(f.rule) + " " + rule_name(f.rule) + " " +
           f.object + ": " + f.detail + "\n";
  }
  return out;
}

// ----------------------------------------------------------- netlist view

NetlistView NetlistView::of(const rtl::Netlist& netlist) {
  NetlistView v;
  v.name = netlist.name();
  v.gates.assign(netlist.gates().begin(), netlist.gates().end());
  v.inputs = netlist.inputs();
  v.dffs = netlist.flip_flops();
  v.outputs = netlist.outputs();
  return v;
}

// ----------------------------------------------------------------- linter

bool Linter::suppressed(Rule rule) const noexcept {
  return std::find(options_.suppress.begin(), options_.suppress.end(), rule) !=
         options_.suppress.end();
}

void Linter::structural(const NetlistView& v, LintReport& r) const {
  const auto count = static_cast<Net>(v.gates.size());
  const auto in_range = [&](Net n) { return n >= 0 && n < count; };
  const auto emit = [&](Rule rule, std::string object, std::string detail) {
    if (!suppressed(rule)) {
      r.findings.push_back(
          Finding{rule, rule_severity(rule), std::move(object), std::move(detail)});
    }
  };
  for (const Rule rule :
       {Rule::operand_range, Rule::operand_arity, Rule::bad_kind, Rule::forward_ref,
        Rule::comb_cycle, Rule::undriven_dff, Rule::dangling_logic,
        Rule::autonomous_register}) {
    if (!suppressed(rule)) ++r.rules_checked;
  }

  // --- per-gate rules: kind, arity, operand range, order -----------------
  for (Net i = 0; i < count; ++i) {
    const Gate& g = v.gates[static_cast<std::size_t>(i)];
    if (!kind_in_range(g.kind)) {
      emit(Rule::bad_kind, net_str(i),
           "kind encoding " + std::to_string(static_cast<int>(g.kind)) +
               " outside the GateKind enum");
      continue;  // nothing else about this gate is interpretable
    }
    const unsigned arity = rtl::kind_info(g.kind).arity;
    const std::array<std::pair<char, Net>, 3> slots{
        {{'a', g.a}, {'b', g.b}, {'c', g.c}}};
    for (unsigned s = 0; s < 3; ++s) {
      const auto [slot_name, operand] = slots[s];
      const std::string slot{1, slot_name};
      if (s >= arity) {
        if (operand != -1) {
          emit(Rule::operand_arity, net_str(i),
               std::string{rtl::to_string(g.kind)} + " sets unused operand " + slot +
                   " = " + std::to_string(operand));
        }
        continue;
      }
      if (operand < 0) {
        // A disconnected dff is its own defect class (the builder API's
        // connect_next contract); any other kind can't be built this way.
        if (g.kind == GateKind::dff) continue;  // undriven_dff below
        emit(Rule::operand_range, net_str(i),
             std::string{rtl::to_string(g.kind)} + " operand " + slot + " is unset");
        continue;
      }
      if (operand >= count) {
        emit(Rule::operand_range, net_str(i),
             std::string{rtl::to_string(g.kind)} + " operand " + slot + " = " +
                 std::to_string(operand) + " outside [0, " + std::to_string(count) +
                 ")");
        continue;
      }
      // Declaration order is the IR's evaluability contract: combinational
      // logic must be computable in a single forward pass.
      if (rtl::is_combinational(g.kind) && operand >= i) {
        emit(Rule::forward_ref, net_str(i),
             std::string{rtl::to_string(g.kind)} + " operand " + slot + " = " +
                 std::to_string(operand) + " declared at or after its reader");
      }
    }
    if (g.kind == GateKind::dff && g.a < 0) {
      emit(Rule::undriven_dff, net_str(i), "flip-flop next-state net never connected");
    }
  }

  // --- interface lists: the out-of-range-ref rule covers them too --------
  for (std::size_t k = 0; k < v.inputs.size(); ++k) {
    const Net n = v.inputs[k];
    if (!in_range(n)) {
      emit(Rule::operand_range, "inputs[" + std::to_string(k) + "]",
           "input list entry " + std::to_string(n) + " outside [0, " +
               std::to_string(count) + ")");
    } else if (kind_in_range(v.gates[static_cast<std::size_t>(n)].kind) &&
               v.gates[static_cast<std::size_t>(n)].kind != GateKind::input) {
      emit(Rule::operand_range, "inputs[" + std::to_string(k) + "]",
           net_str(n) + " is not an input gate");
    }
  }
  for (std::size_t k = 0; k < v.dffs.size(); ++k) {
    const Net n = v.dffs[k];
    if (!in_range(n)) {
      emit(Rule::operand_range, "dffs[" + std::to_string(k) + "]",
           "flip-flop list entry " + std::to_string(n) + " outside [0, " +
               std::to_string(count) + ")");
    } else if (kind_in_range(v.gates[static_cast<std::size_t>(n)].kind) &&
               v.gates[static_cast<std::size_t>(n)].kind != GateKind::dff) {
      emit(Rule::operand_range, "dffs[" + std::to_string(k) + "]",
           net_str(n) + " is not a flip-flop");
    }
  }
  for (const auto& [name, n] : v.outputs) {
    if (!in_range(n)) {
      emit(Rule::operand_range, "output '" + name + "'",
           "bound to net " + std::to_string(n) + " outside [0, " +
               std::to_string(count) + ")");
    }
  }

  // --- combinational cycles: iterative SCC (registers cut) ---------------
  // forward_ref already flags every declaration-order violation; the SCC
  // pass tells genuine cycles (unevaluable in ANY order) apart from benign
  // forward DAG references a view mutation may have introduced.
  {
    std::vector<int> color(static_cast<std::size_t>(count), 0);  // 0 new 1 open 2 done
    std::vector<std::pair<Net, unsigned>> stack;  // (node, next operand slot)
    for (Net root = 0; root < count; ++root) {
      if (color[static_cast<std::size_t>(root)] != 0) continue;
      stack.emplace_back(root, 0u);
      while (!stack.empty()) {
        const auto [node, slot] = stack.back();  // copy — pushes reallocate
        const std::size_t ni = static_cast<std::size_t>(node);
        if (slot == 0) color[ni] = 1;
        const Gate& g = v.gates[ni];
        const unsigned arity = kind_in_range(g.kind) && rtl::is_combinational(g.kind)
                                   ? rtl::kind_info(g.kind).arity
                                   : 0u;
        bool descended = false;
        for (unsigned s = slot; s < arity; ++s) {
          const Net op = s == 0 ? g.a : s == 1 ? g.b : g.c;
          if (!in_range(op)) continue;
          const std::size_t oi = static_cast<std::size_t>(op);
          if (color[oi] == 1) {
            emit(Rule::comb_cycle, net_str(node),
                 "combinational cycle through " + net_str(op));
          } else if (color[oi] == 0) {
            stack.back().second = s + 1;
            stack.emplace_back(op, 0u);
            descended = true;
            break;
          }
        }
        if (!descended) {
          color[ni] = 2;
          stack.pop_back();
        }
      }
    }
  }

  // --- dangling logic: union backward cone of every output ---------------
  // Registers pull in their next-state nets, so "reachable" means
  // observable at SOME frame. Warning severity: the generator's pool nets
  // and keep_all_nets optimizer output are dangling by construction.
  {
    std::vector<Net> roots;
    for (const auto& [name, n] : v.outputs) {
      if (in_range(n)) roots.push_back(n);
    }
    const std::vector<char> cone = rtl::cone_of_influence(v.gates, roots);
    std::size_t dangling = 0;
    Net first = -1;
    for (Net i = 0; i < count; ++i) {
      const GateKind k = v.gates[static_cast<std::size_t>(i)].kind;
      // Logic = every kind but constants and inputs, the fault-site set.
      if (!kind_in_range(k) || !rtl::is_fault_site(k)) continue;
      if (cone[static_cast<std::size_t>(i)] == 0) {
        if (first < 0) first = i;
        ++dangling;
      }
    }
    if (dangling > 0) {
      emit(Rule::dangling_logic, "netlist",
           std::to_string(dangling) + " gates outside every output cone (first: " +
               net_str(first) + ")");
    }
  }

  // --- autonomous registers ----------------------------------------------
  // A register is autonomous when no primary input reaches its next-state
  // logic even transitively through other registers: once past reset its
  // trajectory is fixed, which is legitimate for free-running counters but
  // worth a warning everywhere else. One forward closure from the input
  // gates, crossing only the listed registers: a listed flip-flop the
  // closure reaches depends on an input; every other entry is autonomous.
  if (std::all_of(v.dffs.begin(), v.dffs.end(), in_range)) {
    std::vector<Net> inputs;
    for (Net i = 0; i < count; ++i) {
      if (v.gates[static_cast<std::size_t>(i)].kind == GateKind::input) inputs.push_back(i);
    }
    const std::vector<char> reached =
        rtl::ConeTracer{v.gates, v.dffs}.fault_cone_closure(inputs);
    std::size_t autonomous = 0;
    Net first = -1;
    for (const Net d : v.dffs) {
      const auto di = static_cast<std::size_t>(d);
      if (v.gates[di].kind == GateKind::dff && reached[di] != 0) continue;
      if (first < 0) first = d;
      ++autonomous;
    }
    if (autonomous > 0) {
      emit(Rule::autonomous_register, "netlist",
           std::to_string(autonomous) +
               " registers whose next state never depends on a primary input "
               "(first: " +
               net_str(first) + ")");
    }
  }
}

void Linter::semantic(const rtl::Netlist& n, LintReport& r) const {
  const auto emit = [&](Rule rule, std::string object, std::string detail) {
    if (!suppressed(rule)) {
      r.findings.push_back(
          Finding{rule, rule_severity(rule), std::move(object), std::move(detail)});
    }
  };
  for (const Rule rule :
       {Rule::const_net, Rule::unreachable_mux_arm, Rule::undetectable_fault}) {
    if (!suppressed(rule)) ++r.rules_checked;
  }

  const ConstProof proof = prove_constants(n, options_.sat_rounds, options_.seed,
                                           options_.max_sat_proofs);
  r.sat_proofs += proof.proofs;
  r.sat_conflicts += proof.conflicts;

  for (std::size_t i = 0; i < proof.value.size(); ++i) {
    if (proof.value[i] >= 0) {
      emit(Rule::const_net, net_str(static_cast<Net>(i)),
           std::string{"provably constant "} + (proof.value[i] == 1 ? "1" : "0") +
               " over free inputs and state");
    }
  }
  for (std::size_t i = 0; i < n.gate_count(); ++i) {
    const Gate& g = n.gate(static_cast<Net>(i));
    if (g.kind != GateKind::mux) continue;
    const signed char sel = const_of(n, g.a, proof.value);
    if (sel < 0) continue;
    emit(Rule::unreachable_mux_arm, net_str(static_cast<Net>(i)),
         std::string{"select "} + net_str(g.a) + " is constant " +
             (sel == 1 ? "1" : "0") + "; the " + (sel == 1 ? "else" : "then") +
             " arm (" + net_str(sel == 1 ? g.c : g.b) + ") is unreachable");
  }

  // Provably-undetectable stuck-at sites relative to the netlist's own
  // outputs — the a-priori prune pcc runs through FaultPruner, surfaced
  // here as a summary so semantic reports carry the figure.
  if (!suppressed(Rule::undetectable_fault)) {
    std::vector<Net> roots;
    for (const auto& [name, net] : n.outputs()) roots.push_back(net);
    const auto [sites, first] = undetectable_sites(
        n, rtl::cone_of_influence(n.gates(), roots), proof.value);
    if (sites > 0) {
      emit(Rule::undetectable_fault, "netlist",
           std::to_string(sites) +
               " stuck-at sites provably undetectable by any property over "
               "the declared outputs (first: " +
               net_str(first) + ")");
    }
  }
}

namespace {

// Registry bridge, published exactly once per public analyze() call — the
// netlist overload deliberately does NOT delegate to the view overload, so
// an analysis is never counted twice (and its semantic findings are
// included in the published totals).
void publish_obs(const LintReport& r) {
  obs::counter<"lint.analyses">().inc();
  obs::counter<"lint.rules_checked">().add(r.rules_checked);
  obs::counter<"lint.findings">().add(r.findings.size());
  obs::counter<"lint.sat_proofs">().add(r.sat_proofs);
  obs::counter<"lint.sat_conflicts">().add(r.sat_conflicts);
}

}  // namespace

LintReport Linter::analyze(const NetlistView& view) const {
  OBS_SPAN("lint.analyze");
  LintReport r;
  r.subject = view.name;
  structural(view, r);
  publish_obs(r);
  return r;
}

LintReport Linter::analyze(const rtl::Netlist& netlist) const {
  OBS_SPAN("lint.analyze");
  const NetlistView view = NetlistView::of(netlist);
  LintReport r;
  r.subject = view.name;
  structural(view, r);
  // The semantic tier encodes the netlist; structural errors mean the
  // encoder's preconditions may not hold, so it only runs on sane inputs
  // (a real rtl::Netlist is sane by construction — this guard is for
  // belt-and-braces symmetry with the view path).
  if (options_.semantic && r.error_count() == 0) semantic(netlist, r);
  publish_obs(r);
  return r;
}

LintReport Linter::analyze(const core::TaskGraph& graph) const {
  OBS_SPAN("lint.analyze");
  LintReport r;
  r.subject = "task_graph";
  const auto emit = [&](Rule rule, std::string object, std::string detail) {
    if (!suppressed(rule)) {
      r.findings.push_back(
          Finding{rule, rule_severity(rule), std::move(object), std::move(detail)});
    }
  };
  for (const Rule rule : {Rule::graph_cycle, Rule::graph_self_loop,
                          Rule::graph_duplicate_channel, Rule::graph_isolated_task}) {
    if (!suppressed(rule)) ++r.rules_checked;
  }

  const auto& tasks = graph.tasks();
  const auto& channels = graph.channels();
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < tasks.size(); ++i) index[tasks[i].name] = i;

  std::vector<std::vector<std::size_t>> succ(tasks.size());
  std::vector<std::size_t> indegree(tasks.size(), 0);
  std::vector<char> touched(tasks.size(), 0);
  std::map<std::pair<std::string, std::string>, std::size_t> edge_count;
  for (const auto& ch : channels) {
    // Endpoints always resolve — TaskGraph::add_channel rejects unknown
    // tasks — so the lookups here cannot miss.
    const std::size_t from = index.at(ch.from);
    const std::size_t to = index.at(ch.to);
    touched[from] = touched[to] = 1;
    if (from == to) {
      emit(Rule::graph_self_loop, "task '" + ch.from + "'",
           "channel from a task to itself");
      continue;  // keep Kahn's indegrees self-loop-free
    }
    succ[from].push_back(to);
    ++indegree[to];
    ++edge_count[{ch.from, ch.to}];
  }
  for (const auto& [edge, count] : edge_count) {
    if (count > 1) {
      emit(Rule::graph_duplicate_channel,
           "channel '" + edge.first + "' -> '" + edge.second + "'",
           std::to_string(count) + " parallel channels between the same tasks");
    }
  }

  // Kahn: whatever survives with nonzero indegree sits on a cycle.
  std::vector<std::size_t> ready;
  std::vector<std::size_t> degree = indegree;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (degree[i] == 0) ready.push_back(i);
  }
  std::size_t ordered = 0;
  while (!ready.empty()) {
    const std::size_t t = ready.back();
    ready.pop_back();
    ++ordered;
    for (const std::size_t s : succ[t]) {
      if (--degree[s] == 0) ready.push_back(s);
    }
  }
  if (ordered < tasks.size()) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (degree[i] != 0) {
        emit(Rule::graph_cycle, "task '" + tasks[i].name + "'",
             "channel cycle — deadlock under bounded FIFOs");
        break;  // one finding per cycle-carrying graph keeps reports small
      }
    }
  }

  if (tasks.size() > 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (touched[i] == 0) {
        emit(Rule::graph_isolated_task, "task '" + tasks[i].name + "'",
             "no channel reads from or writes to this task");
      }
    }
  }
  publish_obs(r);
  return r;
}

// ----------------------------------------------------------- fault pruner

FaultPruner::FaultPruner(const rtl::Netlist& netlist,
                         const std::vector<std::string>& observed, Options options) {
  std::vector<Net> roots;
  roots.reserve(observed.size());
  for (const auto& name : observed) roots.push_back(netlist.output(name));
  cone_ = rtl::cone_of_influence(netlist.gates(), roots);
  const_val_.assign(netlist.gate_count(), -1);
  if (options.semantic) {
    const ConstProof proof = prove_constants(netlist, options.sat_rounds,
                                             options.seed, options.max_sat_proofs);
    const_val_ = proof.value;
    sat_proofs_ = proof.proofs;
    sat_conflicts_ = proof.conflicts;
  }
  prunable_ = undetectable_sites(netlist, cone_, const_val_).first;
}

bool FaultPruner::undetectable(rtl::Net net, bool stuck_to) const {
  if (net < 0 || static_cast<std::size_t>(net) >= cone_.size()) return false;
  const auto i = static_cast<std::size_t>(net);
  if (cone_[i] == 0) return true;  // invisible to every observed output
  return const_val_[i] == static_cast<signed char>(stuck_to ? 1 : 0);
}

// ---------------------------------------------------- boundary self-check

void enforce(const LintReport& report) {
  const std::size_t errors = report.error_count();
  if (errors == 0) return;
  std::string msg = "lint: " + report.subject + " has " + std::to_string(errors) +
                    " error finding(s):\n";
  std::size_t listed = 0;
  for (const auto& f : report.findings) {
    if (f.severity != Severity::error) continue;
    msg += "  " + std::string{rule_id(f.rule)} + " " + rule_name(f.rule) + " " +
           f.object + ": " + f.detail + "\n";
    if (++listed == 8) break;  // keep campaign-sized exceptions readable
  }
  throw std::logic_error{msg};
}

void check_netlist(const rtl::Netlist& netlist, const char* where) {
  LintReport report = Linter{}.analyze(netlist);
  report.subject = std::string{where} + ": " + report.subject;
  enforce(report);
}

void check_graph(const core::TaskGraph& graph, const char* where) {
  LintReport report = Linter{}.analyze(graph);
  report.subject = std::string{where} + ": " + report.subject;
  enforce(report);
}

}  // namespace symbad::lint
