#include "opt/session.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "lint/lint.hpp"

namespace symbad::opt {

using rtl::Gate;
using rtl::GateKind;
using rtl::Net;
using rtl::Netlist;

namespace {

OptimizerOptions fault_free(OptimizerOptions options) {
  if (options.faults != nullptr) {
    throw std::invalid_argument{
        "opt: session baseline cannot carry faults (pass them to reoptimize)"};
  }
  return options;
}

}  // namespace

PreprocessSession::PreprocessSession(const Netlist& netlist, OptimizerOptions options)
    : original_{&netlist},
      options_{fault_free(std::move(options))},
      baseline_{Optimizer{options_}.run(netlist)},
      tracer_{netlist.gates(), netlist.flip_flops()} {
  baseline_hash_ = detail::Builder::scan_hash(baseline_.netlist, baseline_consts_);
}

OptimizeResult PreprocessSession::full_rebuild(
    const std::map<Net, bool>& faults) const {
  OptimizerOptions oo = options_;
  oo.faults = &faults;
  // A one-shot rebuild cannot amortize the sweep (it would re-prove the
  // same fault-independent merges for every fault) — mirror the
  // session-free per-fault path exactly, sweep off.
  oo.sweep = false;
  return Optimizer{oo}.run(*original_);
}

OptimizeResult PreprocessSession::reoptimize(
    const std::map<Net, bool>& faults) const {
  if (faults.empty()) {
    OptimizeResult copy;
    copy.netlist = baseline_.netlist;
    copy.map = baseline_.map;
    copy.passes = baseline_.passes;
    return copy;
  }
  ++stats_.reoptimizes;
  if (!options_.incremental) {
    ++stats_.full_rebuilds;
    return full_rebuild(faults);
  }
  ++stats_.incremental;

  const Netlist& in = *original_;
  const NetMap& base = baseline_.map;

  std::vector<Net> sites;
  sites.reserve(faults.size());
  for (const auto& [net, value] : faults) sites.push_back(net);
  const std::vector<char> cone = tracer_.fault_cone_closure(sites);

  // The rebuild set: every in-cone net the baseline kept alive, plus — by
  // backward closure over operands — every baseline-DEAD net a rebuilt net
  // reads. A live reader can reference a dead operand: the baseline only
  // folded the GOOD dependence away (e.g. and(j, k) with good k = 0 kills
  // j), and the corrupted circuit may restore it, so the dead operand's
  // logic must be re-derived (good if out of cone, corrupted if inside).
  std::vector<char> rebuild(in.gate_count(), 0);
  std::vector<Net> work;
  const auto require = [&](Net n) {
    auto& r = rebuild[static_cast<std::size_t>(n)];
    if (r == 0) {
      r = 1;
      work.push_back(n);
    }
  };
  for (std::size_t i = 0; i < in.gate_count(); ++i) {
    if (cone[i] != 0 && base.old_to_new[i] >= 0) require(static_cast<Net>(i));
  }
  while (!work.empty()) {
    const Net net = work.back();
    work.pop_back();
    if (faults.contains(net)) continue;  // a fault site reads nothing
    rtl::for_each_operand(in.gate(net), [&](Net j) {
      if (j >= 0 && base.old_to_new[static_cast<std::size_t>(j)] < 0) require(j);
    });
  }

  // Delta rebuild over a copy of the baseline: walk the ORIGINAL nets in
  // declaration order and re-derive an image for every net in the rebuild
  // set; all other operands read straight from the cached baseline map.
  detail::Builder b{baseline_.netlist, &baseline_hash_, baseline_consts_};
  std::vector<Net> image(in.gate_count(), -1);
  std::vector<std::pair<Net, Net>> reconnect;  // (spliced dff net, old next)
  std::size_t cone_nets = 0;
  for (std::size_t i = 0; i < in.gate_count(); ++i) {
    if (rebuild[i] == 0) continue;
    ++cone_nets;
    const Net old = static_cast<Net>(i);
    const Gate& g = in.gate(old);
    const Net mapped = base.old_to_new[i];
    if (const auto it = faults.find(old); it != faults.end()) {
      // Baked at original-netlist granularity: only the site's image turns
      // constant. Merge siblings the baseline folded onto one net keep the
      // shared (good) image — the merge was proven over free state, so it
      // holds pointwise in the corrupted states as well.
      image[i] = b.constant(it->second);
      continue;
    }
    const auto op = [&](Net n) {
      const auto j = static_cast<std::size_t>(n);
      return rebuild[j] != 0 ? image[j] : base.old_to_new[j];
    };
    switch (g.kind) {
      case GateKind::input:
        image[i] = mapped;  // operand-free and never dead
        break;
      case GateKind::const0:
      case GateKind::const1:
        image[i] = b.constant(g.kind == GateKind::const1);
        break;
      case GateKind::dff:
        // Flip-flops are never merged: keep the baseline register (or mint
        // a fresh one when the baseline dropped it as dead) and point its
        // next-state input at the spliced logic afterwards (the next-state
        // net may be declared later).
        image[i] = mapped >= 0 ? mapped : b.dff(g.init, in.net_name(old));
        reconnect.emplace_back(image[i], g.a);
        break;
      case GateKind::and_gate: image[i] = b.mk_and(op(g.a), op(g.b)); break;
      case GateKind::or_gate: image[i] = b.mk_or(op(g.a), op(g.b)); break;
      case GateKind::xor_gate: image[i] = b.mk_xor(op(g.a), op(g.b)); break;
      case GateKind::not_gate: image[i] = b.mk_not(op(g.a)); break;
      case GateKind::mux: image[i] = b.mk_mux(op(g.a), op(g.b), op(g.c)); break;
    }
  }
  for (const auto& [dff_net, old_next] : reconnect) {
    const auto j = static_cast<std::size_t>(old_next);
    const Net next = rebuild[j] != 0 ? image[j] : base.old_to_new[j];
    if (next < 0) throw std::logic_error{"opt: spliced dff next-state lost its image"};
    b.reconnect_next(dff_net, next);
  }
  for (const auto& [name, net] : in.outputs()) {
    const auto j = static_cast<std::size_t>(net);
    if (rebuild[j] == 0) continue;
    if (!baseline_.netlist.outputs().contains(name)) continue;  // not preserved
    b.set_output(name, image[j]);
  }

  OptimizeResult out;
  out.map.old_to_new.resize(in.gate_count());
  for (std::size_t i = 0; i < in.gate_count(); ++i) {
    out.map.old_to_new[i] = rebuild[i] != 0 ? image[i] : base.old_to_new[i];
  }
  out.passes = baseline_.passes;
  out.passes.push_back(PassStats{"incremental", in.gate_count(),
                                 b.netlist().gate_count(), 0, 0, 0, 0,
                                 b.netlist().gate_histogram()});
  out.netlist = b.take();
  stats_.cone_nets += cone_nets;
  // Splice self-check: the cone splice is exactly the construction that
  // once produced an out-of-range operand, so its output is structurally
  // linted on every reoptimize.
  lint::check_netlist(out.netlist, "opt.splice");
  return out;
}

}  // namespace symbad::opt
