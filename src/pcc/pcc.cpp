#include "pcc/pcc.hpp"

#include <deque>
#include <optional>
#include <utility>

#include "lint/lint.hpp"
#include "obs/obs.hpp"
#include "opt/session.hpp"
#include "verif/rng.hpp"

namespace symbad::pcc {

namespace {

/// Runs random stimulus against the faulty simulator and reports the first
/// property violated, if any. `sim` is the campaign's one simulator over
/// `netlist`; each run starts it from reset with only this fault injected.
const mc::Property* simulate_detects(rtl::Simulator& sim, const rtl::Netlist& netlist,
                                     const std::vector<mc::Property>& properties,
                                     rtl::Net fault_net, bool stuck_to,
                                     const PccOptions& options, verif::Rng& rng) {
  for (int run = 0; run < options.simulation_runs; ++run) {
    sim.clear_faults();
    sim.reset();
    sim.inject_stuck_at(fault_net, stuck_to);
    // Sliding windows for next-implication / bounded-response checks.
    std::vector<bool> prev_p(properties.size(), false);
    std::vector<std::deque<int>> pending(properties.size());  // response deadlines
    bool first_cycle = true;

    for (int cycle = 0; cycle < options.simulation_cycles; ++cycle) {
      for (const rtl::Net in : netlist.inputs()) {
        sim.set_input(in, (rng.next() & 1) != 0);
      }
      sim.eval();
      for (std::size_t i = 0; i < properties.size(); ++i) {
        const auto& prop = properties[i];
        const bool p = prop.antecedent.eval(sim, netlist);
        switch (prop.kind) {
          case mc::PropertyKind::invariant:
            if (!p) return &prop;
            break;
          case mc::PropertyKind::next_implication: {
            const bool q = prop.consequent.eval(sim, netlist);
            if (!first_cycle && prev_p[i] && !q) return &prop;
            prev_p[i] = p;
            break;
          }
          case mc::PropertyKind::bounded_response: {
            const bool q = prop.consequent.eval(sim, netlist);
            auto& deadlines = pending[i];
            if (q) {
              deadlines.clear();
            } else {
              for (int& d : deadlines) {
                if (--d < 0) return &prop;
              }
            }
            if (p && !q) deadlines.push_back(prop.response_bound);
            break;
          }
        }
      }
      first_cycle = false;
      sim.step();
    }
  }
  return nullptr;
}

}  // namespace

PccReport check_property_coverage(const rtl::Netlist& netlist,
                                  const std::vector<mc::Property>& properties,
                                  const PccOptions& options) {
  OBS_SPAN("pcc.check_property_coverage");
  // Candidate faults: both stuck-at polarities on every internal net.
  std::vector<std::pair<rtl::Net, bool>> faults;
  for (std::size_t i = 0; i < netlist.gate_count(); ++i) {
    if (!rtl::is_fault_site(netlist.gate(static_cast<rtl::Net>(i)).kind)) continue;
    faults.emplace_back(static_cast<rtl::Net>(i), false);
    faults.emplace_back(static_cast<rtl::Net>(i), true);
  }
  if (options.max_faults > 0 && faults.size() > options.max_faults) {
    // Deterministic uniform sampling.
    std::vector<std::pair<rtl::Net, bool>> sampled;
    const double stride = static_cast<double>(faults.size()) /
                          static_cast<double>(options.max_faults);
    for (std::size_t k = 0; k < options.max_faults; ++k) {
      sampled.push_back(faults[static_cast<std::size_t>(k * stride)]);
    }
    faults = std::move(sampled);
  }

  PccReport report;
  report.total_faults = faults.size();
  verif::Rng rng{options.seed};
  const mc::ModelChecker checker{netlist};
  mc::ModelChecker::Options mc_opts;
  mc_opts.max_bound = options.bmc_bound;
  // PCC only asks *whether* a property falsifies on the faulty netlist;
  // the traces are discarded, so skip counterexample canonicalisation.
  mc_opts.canonical_counterexample = false;
  mc_opts.optimize = options.optimize;
  // One cached preprocess session for the whole campaign: the good netlist
  // runs the full pipeline (sweep included) exactly once, preserving the
  // outputs the property set observes; every BMC-graded fault then pays
  // only for re-optimizing its own forward cone against that baseline.
  std::optional<opt::PreprocessSession> session;
  if (options.optimize) {
    opt::OptimizerOptions oo;
    oo.incremental = options.incremental;
    oo.preserve_outputs = mc::observed_outputs({properties.data(), properties.size()});
    session.emplace(netlist, std::move(oo));
    mc_opts.preprocess_session = &*session;
    report.baseline_sweep_proofs = session->baseline().sweep_proofs();
  }

  // A-priori fault prune (PccOptions::lint_prune): faults the FaultPruner
  // proves cannot change any observed output skip the BMC stage. The sim
  // pre-pass is NOT skipped — it draws from the shared sequential rng, and
  // dropping a fault's draws would shift every later fault's stimuli (the
  // prune must leave verdicts bit-identical). "Pruned => undetected" is
  // only exact when the GOOD design is BMC-clean (a property the fault-free
  // design already falsifies is "detected" for every fault in this grading,
  // visible or not), so the first prunable sim-missed fault lazily runs one
  // fault-free probe; a dirty probe disables the prune for the campaign.
  std::optional<lint::FaultPruner> pruner;
  if (options.lint_prune) {
    pruner.emplace(netlist, mc::observed_outputs({properties.data(), properties.size()}));
  }
  bool good_design_probed = false;
  rtl::Simulator sim{netlist};

  for (const auto& [net, stuck_to] : faults) {
    FaultOutcome outcome;
    outcome.net = net;
    outcome.stuck_to = stuck_to;

    if (const mc::Property* by_sim =
            simulate_detects(sim, netlist, properties, net, stuck_to, options, rng)) {
      outcome.detected = true;
      outcome.detected_by = by_sim->name;
      outcome.detected_by_simulation = true;
      ++report.detected;
      ++report.detected_by_simulation;
      continue;
    }
    if (pruner && pruner->undetectable(net, stuck_to)) {
      if (!good_design_probed) {
        good_design_probed = true;
        const auto probe =
            checker.check_all_with_faults(properties, {}, mc_opts);
        for (const auto& r : probe.results) {
          if (r.status == mc::CheckStatus::falsified) {
            pruner.reset();  // good design dirty: prune off for the campaign
            break;
          }
        }
      }
      if (pruner) {
        // The faulty design's observed behaviour is provably the good
        // design's, and the good design passes: undetected, no BMC slot.
        ++report.lint_pruned_faults;
        report.undetected.push_back(outcome);
        continue;
      }
    }
    // Portfolio BMC: all properties on one solver per fault — undetectable
    // faults (the common case) cost one UNSAT solve per bound for the whole
    // property set instead of one BMC sweep per property.
    std::map<rtl::Net, bool> fault_map{{net, stuck_to}};
    const auto multi = checker.check_all_with_faults(properties, fault_map, mc_opts);
    report.opt_gates_before += multi.opt_gates_before;
    report.opt_gates_after += multi.opt_gates_after;
    report.encoded_vars += static_cast<std::size_t>(multi.solver_variables);
    report.encoded_clauses += multi.solver_clauses;
    if (multi.opt_incremental) {
      ++report.incremental_reopts;
    } else if (multi.opt_gates_before > 0) {
      ++report.full_rebuilds;
    }
    for (std::size_t i = 0; i < properties.size(); ++i) {
      if (multi.results[i].status == mc::CheckStatus::falsified) {
        outcome.detected = true;
        outcome.detected_by = properties[i].name;
        ++report.detected;
        ++report.detected_by_bmc;
        break;
      }
    }
    if (!outcome.detected) report.undetected.push_back(outcome);
  }

  // Registry bridge for the completed campaign — one batch of adds per
  // report, all deterministic (fault order, sampling, grading verdicts and
  // opt/encode footprints are seed-fixed).
  obs::counter<"pcc.campaigns">().inc();
  obs::counter<"pcc.faults_total">().add(report.total_faults);
  obs::counter<"pcc.detected">().add(report.detected);
  obs::counter<"pcc.detected_by_simulation">().add(report.detected_by_simulation);
  obs::counter<"pcc.detected_by_bmc">().add(report.detected_by_bmc);
  obs::counter<"pcc.lint_pruned">().add(report.lint_pruned_faults);
  obs::counter<"pcc.encoded_vars">().add(report.encoded_vars);
  obs::counter<"pcc.encoded_clauses">().add(report.encoded_clauses);
  obs::counter<"pcc.opt_gates_before">().add(report.opt_gates_before);
  obs::counter<"pcc.opt_gates_after">().add(report.opt_gates_after);
  obs::counter<"pcc.incremental_reopts">().add(report.incremental_reopts);
  obs::counter<"pcc.full_rebuilds">().add(report.full_rebuilds);
  obs::counter<"pcc.baseline_sweep_proofs">().add(report.baseline_sweep_proofs);
  return report;
}

}  // namespace symbad::pcc
