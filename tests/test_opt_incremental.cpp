// Tests for the campaign-cached incremental optimizer (opt::PreprocessSession)
// and its plumbing through mc::ModelChecker, pcc::check_property_coverage and
// atpg::SatEngine. The acceptance gate is three-way identity: for every fault,
// the incremental cone splice, the full per-fault rebuild and the optimize-off
// path must agree bit-for-bit on verdict, bound_used, canonical
// counterexample, coverage verdict and ATPG detectability.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "app/rtl_blocks.hpp"
#include "atpg/atpg.hpp"
#include "gen/gen.hpp"
#include "mc/mc.hpp"
#include "opt/optimizer.hpp"
#include "opt/session.hpp"
#include "pcc/pcc.hpp"
#include "rtl/netlist.hpp"
#include "support/test_util.hpp"

namespace opt = symbad::opt;
namespace mc = symbad::mc;
namespace rtl = symbad::rtl;
namespace app = symbad::app;
namespace atpg = symbad::atpg;
namespace pcc = symbad::pcc;
namespace gen = symbad::gen;
using symbad::verif::Rng;

namespace {

/// Same seeded random netlist generator as test_opt.cpp — the shared
/// gen::random_netlist recipe (identical Rng stream, identical instances),
/// so both the baseline pipeline and the per-fault splice have real work.
rtl::Netlist random_netlist(Rng& rng, int n_inputs, int n_dffs, int n_gates,
                            int n_outputs) {
  return gen::random_netlist(rng, {n_inputs, n_dffs, n_gates, n_outputs, 0.25});
}

/// Internal fault sites of the PCC shape: a few gates/registers, skipping
/// constants and inputs, spread over the netlist.
std::vector<rtl::Net> sample_fault_sites(const rtl::Netlist& n, std::size_t want) {
  std::vector<rtl::Net> sites;
  const std::size_t stride = n.gate_count() / want + 1;
  for (std::size_t i = 0; i < n.gate_count() && sites.size() < want; ++i) {
    const std::size_t idx = (i * stride) % n.gate_count();
    const auto kind = n.gate(static_cast<rtl::Net>(idx)).kind;
    if (kind == rtl::GateKind::const0 || kind == rtl::GateKind::const1 ||
        kind == rtl::GateKind::input) {
      continue;
    }
    if (std::find(sites.begin(), sites.end(), static_cast<rtl::Net>(idx)) ==
        sites.end()) {
      sites.push_back(static_cast<rtl::Net>(idx));
    }
  }
  return sites;
}

/// Drives the original netlist with the fault injected into the simulator
/// against the spliced netlist with the fault baked in as a constant, and
/// requires every preserved output to agree on every cycle.
void expect_splice_simulates_fault(const rtl::Netlist& original,
                                   const std::map<rtl::Net, bool>& faults,
                                   const rtl::Netlist& spliced, Rng& rng,
                                   int runs, int cycles) {
  rtl::Simulator sim_ref{original};
  rtl::Simulator sim_opt{spliced};
  for (int run = 0; run < runs; ++run) {
    sim_ref.reset();
    sim_ref.clear_faults();
    for (const auto& [net, value] : faults) sim_ref.inject_stuck_at(net, value);
    sim_opt.reset();
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (const rtl::Net in : original.inputs()) {
        const bool value = (rng.next() & 1) != 0;
        sim_ref.set_input(original.net_name(in), value);
        sim_opt.set_input(original.net_name(in), value);
      }
      sim_ref.eval();
      sim_opt.eval();
      for (const auto& [name, net] : spliced.outputs()) {
        ASSERT_EQ(sim_ref.value(original.output(name)), sim_opt.value(net))
            << "output '" << name << "' diverged at run " << run << " cycle "
            << cycle;
      }
      sim_ref.step();
      sim_opt.step();
    }
  }
}

/// The acceptance gate: one property, one fault set, three preprocessing
/// modes — incremental splice, full per-fault rebuild, optimize off. The
/// verdict, bound_used and canonical counterexample must be bit-identical.
void expect_three_way_identical(const mc::ModelChecker& checker,
                                const mc::Property& prop,
                                const std::map<rtl::Net, bool>& faults,
                                mc::ModelChecker::Options options,
                                const opt::PreprocessSession& incremental,
                                const opt::PreprocessSession& full) {
  options.optimize = true;
  options.preprocess_session = &incremental;
  const auto r_inc = checker.check_with_faults(prop, faults, options);
  options.preprocess_session = &full;
  const auto r_full = checker.check_with_faults(prop, faults, options);
  options.preprocess_session = nullptr;
  options.optimize = false;
  const auto r_off = checker.check_with_faults(prop, faults, options);

  EXPECT_EQ(r_inc.status, r_full.status) << prop.name;
  EXPECT_EQ(r_inc.status, r_off.status) << prop.name;
  EXPECT_EQ(r_inc.bound_used, r_full.bound_used) << prop.name;
  EXPECT_EQ(r_inc.bound_used, r_off.bound_used) << prop.name;
  ASSERT_EQ(r_inc.counterexample.has_value(), r_off.counterexample.has_value())
      << prop.name;
  ASSERT_EQ(r_full.counterexample.has_value(), r_off.counterexample.has_value())
      << prop.name;
  if (r_inc.counterexample.has_value()) {
    EXPECT_EQ(r_inc.counterexample->inputs, r_off.counterexample->inputs)
        << prop.name;
    EXPECT_EQ(r_full.counterexample->inputs, r_off.counterexample->inputs)
        << prop.name;
  }
  // The result advertises which path served it (the bench counters key off
  // this): the splice only for faulty checks, never the full rebuild.
  EXPECT_EQ(r_inc.opt_incremental, !faults.empty()) << prop.name;
  EXPECT_FALSE(r_full.opt_incremental) << prop.name;
  EXPECT_FALSE(r_off.opt_incremental) << prop.name;
  EXPECT_GT(r_inc.opt_gates_before, 0u) << prop.name;
  EXPECT_EQ(r_off.opt_gates_before, 0u) << prop.name;
}

}  // namespace

// ----------------------------------------------------------- session core

TEST(IncSession, BaselineMatchesOneShotOptimizerRun) {
  const auto fsm = app::build_wrapper_fsm();
  const opt::PreprocessSession session{fsm, opt::OptimizerOptions{}};
  const auto reference = opt::optimize(fsm, opt::OptimizerOptions{});
  EXPECT_EQ(session.baseline().netlist.gate_count(), reference.netlist.gate_count());
  EXPECT_EQ(session.baseline().gates_before(), reference.gates_before());
  EXPECT_EQ(session.baseline().gates_after(), reference.gates_after());
  EXPECT_EQ(session.baseline().map.old_to_new, reference.map.old_to_new);

  // Empty fault set: a copy of the cached baseline, not a re-run; the
  // fault-serving statistics stay untouched.
  const auto copy = session.reoptimize({});
  EXPECT_EQ(copy.netlist.gate_count(), session.baseline().netlist.gate_count());
  EXPECT_FALSE(copy.incremental());
  EXPECT_EQ(session.stats().reoptimizes, 0u);
}

TEST(IncSession, SpliceExtendsBaselineAndSimulatesTheFault) {
  const auto fsm = app::build_wrapper_fsm();
  const opt::PreprocessSession session{fsm, opt::OptimizerOptions{}};
  const auto sites = sample_fault_sites(fsm, 4);
  ASSERT_GE(sites.size(), 2u);
  std::size_t served = 0;
  for (const auto site : sites) {
    for (const bool stuck_to : {false, true}) {
      const std::map<rtl::Net, bool> faults{{site, stuck_to}};
      const auto reopt = session.reoptimize(faults);
      EXPECT_TRUE(reopt.incremental());
      ++served;
      // Delta mode extends a copy of the baseline: the baseline's gates
      // survive as an identical prefix (kind and operands), the splice only
      // appends.
      const auto& base = session.baseline().netlist;
      ASSERT_GE(reopt.netlist.gate_count(), base.gate_count());
      for (std::size_t i = 0; i < base.gate_count(); ++i) {
        const auto& bg = base.gate(static_cast<rtl::Net>(i));
        const auto& sg = reopt.netlist.gate(static_cast<rtl::Net>(i));
        ASSERT_EQ(bg.kind, sg.kind) << "net " << i;
        if (bg.kind != rtl::GateKind::dff) {
          // DFF next-state pointers are exactly what the splice re-points.
          ASSERT_EQ(bg.a, sg.a) << "net " << i;
          ASSERT_EQ(bg.b, sg.b) << "net " << i;
          ASSERT_EQ(bg.c, sg.c) << "net " << i;
        }
      }
      reopt.netlist.validate();
      auto stimulus = symbad::test::rng(9000 + static_cast<std::uint64_t>(site) * 2 +
                                        (stuck_to ? 1 : 0));
      expect_splice_simulates_fault(fsm, faults, reopt.netlist, stimulus, 3, 24);
    }
  }
  EXPECT_EQ(session.stats().reoptimizes, served);
  EXPECT_EQ(session.stats().incremental, served);
  EXPECT_EQ(session.stats().full_rebuilds, 0u);
  // The splice re-optimizes cone nets only — on average far fewer than the
  // whole netlist, which is where the campaign speedup comes from.
  EXPECT_LT(session.stats().cone_nets, served * fsm.gate_count());
  EXPECT_GT(session.stats().cone_nets, 0u);
}

TEST(IncSession, IncrementalOffFallsBackToFullRebuild) {
  const auto fsm = app::build_wrapper_fsm();
  opt::OptimizerOptions options;
  options.incremental = false;
  const opt::PreprocessSession session{fsm, options};
  const auto sites = sample_fault_sites(fsm, 1);
  ASSERT_FALSE(sites.empty());
  const std::map<rtl::Net, bool> faults{{sites.front(), true}};
  const auto reopt = session.reoptimize(faults);
  EXPECT_FALSE(reopt.incremental());
  EXPECT_EQ(session.stats().reoptimizes, 1u);
  EXPECT_EQ(session.stats().incremental, 0u);
  EXPECT_EQ(session.stats().full_rebuilds, 1u);

  // The fallback is exactly the session-free per-fault path: a fresh
  // pipeline run with the faults baked in and the sweep off.
  opt::OptimizerOptions oneshot;
  oneshot.faults = &faults;
  oneshot.sweep = false;
  const auto reference = opt::optimize(fsm, oneshot);
  EXPECT_EQ(reopt.netlist.gate_count(), reference.netlist.gate_count());
  EXPECT_EQ(reopt.map.old_to_new, reference.map.old_to_new);
}

TEST(IncSession, ConstructionAndUseValidate) {
  const auto fsm = app::build_wrapper_fsm();
  const std::map<rtl::Net, bool> faults{{fsm.output("busy"), true}};
  opt::OptimizerOptions options;
  options.faults = &faults;  // faults belong to reoptimize, not the baseline
  EXPECT_THROW((opt::PreprocessSession{fsm, options}), std::invalid_argument);

  // mc rejects a session built over a different netlist...
  const opt::PreprocessSession session{fsm, opt::OptimizerOptions{}};
  const auto other = app::build_wrapper_fsm();
  const mc::ModelChecker checker{other};
  mc::ModelChecker::Options mc_opts{6, 3};
  mc_opts.preprocess_session = &session;
  const auto prop = mc::Property::invariant(
      "ack_implies_busy", mc::Expr::signal("ack").implies(mc::Expr::signal("busy")));
  EXPECT_THROW((void)checker.check(prop, mc_opts), std::invalid_argument);

  // ...and one that does not preserve an observed output.
  opt::OptimizerOptions narrow;
  narrow.preserve_outputs = {"busy"};
  const opt::PreprocessSession narrow_session{fsm, narrow};
  const mc::ModelChecker same{fsm};
  mc_opts.preprocess_session = &narrow_session;
  EXPECT_THROW((void)same.check(prop, mc_opts), std::invalid_argument);
}

TEST(IncSession, OutOfRangeFaultSiteThrowsInBothModes) {
  // A fault site the netlist does not have is rejected, not traced or
  // silently dropped.
  const auto fsm = app::build_wrapper_fsm();
  for (const bool incremental : {true, false}) {
    opt::OptimizerOptions options;
    options.incremental = incremental;
    const opt::PreprocessSession session{fsm, options};
    for (const rtl::Net bad :
         {rtl::Net{-100000000}, rtl::Net{-1}, static_cast<rtl::Net>(fsm.gate_count()),
          static_cast<rtl::Net>(fsm.gate_count() + 1000000)}) {
      EXPECT_THROW((void)session.reoptimize({{bad, true}}), std::out_of_range)
          << "net " << bad << (incremental ? " incremental" : " full rebuild");
    }
  }
}

// ------------------------------------------------------- mc-level identity

TEST(IncMc, WrapperFaultCampaignThreeWayIdentical) {
  const auto fsm = app::build_wrapper_fsm();
  const mc::ModelChecker checker{fsm};
  const opt::PreprocessSession incremental{fsm, opt::OptimizerOptions{}};
  opt::OptimizerOptions full_options;
  full_options.incremental = false;
  const opt::PreprocessSession full{fsm, full_options};

  const auto props = app::wrapper_properties_initial();
  const auto sites = sample_fault_sites(fsm, 4);
  ASSERT_GE(sites.size(), 2u);
  for (const auto site : sites) {
    for (const bool stuck_to : {false, true}) {
      const std::map<rtl::Net, bool> faults{{site, stuck_to}};
      for (const auto& prop : props) {
        expect_three_way_identical(checker, prop, faults, {6, 3}, incremental, full);
      }
    }
  }
  EXPECT_GT(incremental.stats().incremental, 0u);
  EXPECT_GT(full.stats().full_rebuilds, 0u);
}

TEST(IncMc, FaultFreeChecksServedFromTheCachedBaseline) {
  const auto fsm = app::build_wrapper_fsm();
  const mc::ModelChecker checker{fsm};
  const opt::PreprocessSession session{fsm, opt::OptimizerOptions{}};
  opt::OptimizerOptions full_options;
  full_options.incremental = false;
  const opt::PreprocessSession full{fsm, full_options};
  for (const auto& prop : app::wrapper_properties_extended()) {
    expect_three_way_identical(checker, prop, {}, {12, 4}, session, full);
  }
  // No faults — nothing to splice or rebuild.
  EXPECT_EQ(session.stats().reoptimizes, 0u);
  EXPECT_EQ(full.stats().reoptimizes, 0u);
}

TEST(IncFuzz, RandomNetlistFaultCampaignsThreeWayIdentical) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto rng = symbad::test::rng(7000 + seed);
    const auto n = random_netlist(rng, 4, 3, 40, 2);
    const mc::ModelChecker checker{n};
    const opt::PreprocessSession incremental{n, opt::OptimizerOptions{}};
    opt::OptimizerOptions full_options;
    full_options.incremental = false;
    const opt::PreprocessSession full{n, full_options};
    const auto prop = mc::Property::invariant(
        "inv", !(mc::Expr::signal("o0") && mc::Expr::signal("o1")));
    const auto next = mc::Property::next("next_imp", mc::Expr::signal("o0"),
                                         mc::Expr::signal("o1"));
    for (const auto site : sample_fault_sites(n, 3)) {
      for (const bool stuck_to : {false, true}) {
        const std::map<rtl::Net, bool> faults{{site, stuck_to}};
        expect_three_way_identical(checker, prop, faults, {6, 3}, incremental, full);
        expect_three_way_identical(checker, next, faults, {6, 3}, incremental, full);
      }
    }
    // And the spliced netlists themselves simulate like the injected fault.
    for (const auto site : sample_fault_sites(n, 2)) {
      const std::map<rtl::Net, bool> faults{{site, true}};
      const auto reopt = incremental.reoptimize(faults);
      reopt.netlist.validate();
      auto stimulus = symbad::test::rng(8000 + seed);
      expect_splice_simulates_fault(n, faults, reopt.netlist, stimulus, 2, 24);
    }
  }
}

TEST(IncFuzz, GeneratedTierSweepThreeWayIdentical) {
  // The generated corpus (small/medium/large tiers) through the same
  // acceptance gate: incremental splice vs full per-fault rebuild vs
  // optimize-off, bit-identical per fault. SYMBAD_GEN_COUNT / _TIER / _SEED
  // reshape the sweep.
  const auto cfg = gen::SweepConfig::from_env();
  for (const auto tier : cfg.tiers()) {
    for (int i = 0; i < cfg.count; ++i) {
      const std::uint64_t seed = cfg.seed_at(i);
      const auto n = gen::generate_netlist(seed, tier);
      const mc::ModelChecker checker{n};
      const opt::PreprocessSession incremental{n, opt::OptimizerOptions{}};
      opt::OptimizerOptions full_options;
      full_options.incremental = false;
      const opt::PreprocessSession full{n, full_options};
      const auto prop = mc::Property::invariant(
          "inv", !(mc::Expr::signal("o0") && mc::Expr::signal("o1")));
      const auto sites = sample_fault_sites(n, 1);
      ASSERT_FALSE(sites.empty()) << gen::to_string(tier) << " seed " << seed;
      for (const bool stuck_to : {false, true}) {
        const std::map<rtl::Net, bool> faults{{sites.front(), stuck_to}};
        expect_three_way_identical(checker, prop, faults, {4, 2}, incremental, full);
      }
      EXPECT_GT(incremental.stats().incremental, 0u)
          << gen::to_string(tier) << " seed " << seed;
    }
  }
}

// ------------------------------------------------------ pcc-level identity

TEST(IncPcc, CoverageVerdictsIdenticalAcrossAllModes) {
  const auto fsm = app::build_wrapper_fsm();
  const auto props = app::wrapper_properties_initial();
  pcc::PccOptions options;
  options.bmc_bound = 6;
  // Keep simulation weak so a healthy share of faults reaches BMC grading.
  options.simulation_runs = 1;
  options.simulation_cycles = 16;

  const auto incremental = pcc::check_property_coverage(fsm, props, options);
  auto full_options = options;
  full_options.incremental = false;
  const auto full = pcc::check_property_coverage(fsm, props, full_options);
  auto off_options = options;
  off_options.optimize = false;
  const auto off = pcc::check_property_coverage(fsm, props, off_options);

  for (const auto* report : {&full, &off}) {
    EXPECT_EQ(incremental.total_faults, report->total_faults);
    EXPECT_EQ(incremental.detected, report->detected);
    EXPECT_EQ(incremental.detected_by_simulation, report->detected_by_simulation);
    EXPECT_EQ(incremental.detected_by_bmc, report->detected_by_bmc);
    ASSERT_EQ(incremental.undetected.size(), report->undetected.size());
    for (std::size_t i = 0; i < incremental.undetected.size(); ++i) {
      EXPECT_EQ(incremental.undetected[i].net, report->undetected[i].net);
      EXPECT_EQ(incremental.undetected[i].stuck_to, report->undetected[i].stuck_to);
    }
  }

  // The campaign actually exercised the cone splice / the full rebuild.
  EXPECT_GT(incremental.incremental_reopts, 0u);
  EXPECT_EQ(incremental.full_rebuilds, 0u);
  EXPECT_GT(full.full_rebuilds, 0u);
  EXPECT_EQ(full.incremental_reopts, 0u);
  EXPECT_EQ(off.incremental_reopts + off.full_rebuilds, 0u);

  // Preprocessing shrinks the per-fault encodings it graded, and both
  // session modes ran the same swept baseline exactly once.
  EXPECT_GT(incremental.opt_gates_before, incremental.opt_gates_after);
  EXPECT_LT(incremental.encoded_vars, off.encoded_vars);
  EXPECT_EQ(incremental.baseline_sweep_proofs, full.baseline_sweep_proofs);
  EXPECT_EQ(off.baseline_sweep_proofs, 0u);
  EXPECT_EQ(off.opt_gates_before, 0u);
}

// ----------------------------------------------------- atpg-level identity

TEST(IncAtpg, DetectabilityIdenticalWithSharedSession) {
  for (const auto& n : {app::build_wrapper_fsm(), app::build_distance_rtl(4, 8)}) {
    opt::OptimizerOptions session_options;
    session_options.keep_all_nets = true;  // the map must stay total
    const opt::PreprocessSession session{n, session_options};

    std::vector<std::pair<rtl::Net, bool>> faults;
    for (const rtl::Net ff : n.flip_flops()) {
      faults.emplace_back(ff, false);
      faults.emplace_back(ff, true);
    }
    atpg::SatEngine::Options with_session{3, true, &session};
    atpg::SatEngine::Options opt_on{3, true, nullptr};
    atpg::SatEngine::Options opt_off{3, false, nullptr};
    atpg::SatEngine shared{n, with_session};
    atpg::SatEngine fresh{n, opt_on};
    atpg::SatEngine plain{n, opt_off};
    const auto r_shared = shared.generate_tests(faults);
    const auto r_fresh = fresh.generate_tests(faults);
    const auto r_plain = plain.generate_tests(faults);
    ASSERT_EQ(r_shared.size(), r_fresh.size());
    ASSERT_EQ(r_shared.size(), r_plain.size());
    for (std::size_t i = 0; i < r_shared.size(); ++i) {
      EXPECT_EQ(r_shared[i].test.has_value(), r_fresh[i].test.has_value())
          << n.name() << " fault net " << r_shared[i].net;
      EXPECT_EQ(r_shared[i].test.has_value(), r_plain[i].test.has_value())
          << n.name() << " fault net " << r_shared[i].net;
      if (r_shared[i].test.has_value()) {
        // The trace may differ (different CNF, same semantics); it must
        // still detect the fault in cycle-accurate simulation.
        rtl::Simulator good{n};
        rtl::Simulator bad{n};
        bad.inject_stuck_at(r_shared[i].net, r_shared[i].stuck_to);
        bool detected = false;
        for (const auto& frame : r_shared[i].test->frames) {
          for (const auto& [name, value] : frame) {
            good.set_input(name, value);
            bad.set_input(name, value);
          }
          good.eval();
          bad.eval();
          for (const auto& [name, net] : n.outputs()) {
            if (good.value(net) != bad.value(net)) detected = true;
          }
          good.step();
          bad.step();
        }
        EXPECT_TRUE(detected) << n.name() << " fault net " << r_shared[i].net;
      }
    }
  }
}

TEST(IncAtpg, SessionValidation) {
  const auto fsm = app::build_wrapper_fsm();
  // A dead-eliminating session (map not total) is rejected.
  opt::OptimizerOptions narrow;
  narrow.preserve_outputs = {"busy"};  // drops the other output cones
  const opt::PreprocessSession partial{fsm, narrow};
  ASSERT_FALSE(partial.baseline().map.total());
  atpg::SatEngine::Options options{3, true, &partial};
  EXPECT_THROW((atpg::SatEngine{fsm, options}), std::invalid_argument);
  // So is a session over a different netlist.
  const auto other = app::build_wrapper_fsm();
  opt::OptimizerOptions total;
  total.keep_all_nets = true;
  const opt::PreprocessSession foreign{other, total};
  options.session = &foreign;
  EXPECT_THROW((atpg::SatEngine{fsm, options}), std::invalid_argument);
  // With `optimize` off the session is not consulted: the unoptimized
  // encoding needs no total map.
  options.optimize = false;
  options.session = &partial;
  const atpg::SatEngine engine{fsm, options};
  EXPECT_GT(engine.solver().variable_count(), 0);
}
