#pragma once
// Campaign-cached incremental preprocessing (the multi-fault complement of
// opt::Optimizer).
//
// Fault-grading campaigns (pcc::check_property_coverage, multi-fault ATPG)
// run thousands of formal sessions that differ from each other in exactly
// one stuck-at constant. A one-shot Optimizer::run per fault cannot
// amortize the pipeline — the sweep in particular re-proves the same
// fault-independent merges every time — so the per-fault path used to run
// with sweeping off. PreprocessSession restores the full pipeline at
// campaign granularity:
//
//  * construction optimizes the GOOD netlist once (rewrite + sweep + final
//    rewrite, exactly Optimizer::run) and caches the result: the optimized
//    baseline netlist, the original->baseline NetMap, the baseline's
//    structural-hash table (rescanned from the hash-canonical baseline),
//    and the original netlist's forward closure (rtl::ConeTracer);
//  * reoptimize(faults) then rebuilds ONLY the fault's forward cone —
//    fault_cone_closure on the original netlist — against a copy of the
//    baseline: the fault site's image becomes a constant, in-cone gates are
//    re-optimized through the shared detail::Builder in delta mode (they
//    hash-hit surviving baseline structure), in-cone flip-flops keep their
//    baseline net and get their next-state input re-pointed at the spliced
//    logic (rtl::Netlist::reconnect_next), and in-cone outputs are
//    re-registered. The final old->new map is the baseline map overridden
//    on the cone — a delta composed over the cached map.
//
// Exactness: faults are baked at ORIGINAL-netlist granularity (the cone is
// traced before any merging), so a fault site that the baseline merged
// with structurally-equal logic never drags its merge siblings to the
// constant — out-of-cone originals keep their baseline images, whose
// functions are untouched: a baseline merge was proven over free state, so
// it holds pointwise in every (also corrupted) state. Verdicts, bounds,
// canonical counterexamples, coverage verdicts and ATPG detectability are
// bit-identical to both the full-rebuild-per-fault path and the
// optimize-off path (pinned by test_opt_incremental).

#include <array>
#include <cstddef>
#include <map>

#include "opt/optimizer.hpp"
#include "opt/rebuild.hpp"
#include "rtl/cone.hpp"
#include "rtl/netlist.hpp"

namespace symbad::opt {

class PreprocessSession {
public:
  struct Stats {
    std::size_t reoptimizes = 0;     ///< reoptimize() calls with faults
    std::size_t incremental = 0;     ///< served by the cone splice
    std::size_t full_rebuilds = 0;   ///< fell back to a full pipeline run
    std::size_t cone_nets = 0;       ///< original nets re-optimized, summed
  };

  /// Runs the baseline pipeline once. `netlist` must outlive the session;
  /// `options.faults` must be null (faults arrive per reoptimize call).
  PreprocessSession(const rtl::Netlist& netlist, OptimizerOptions options);

  PreprocessSession(const PreprocessSession&) = delete;
  PreprocessSession& operator=(const PreprocessSession&) = delete;

  [[nodiscard]] const rtl::Netlist& original() const noexcept { return *original_; }
  [[nodiscard]] const OptimizerOptions& options() const noexcept { return options_; }
  /// The cached good-netlist optimization.
  [[nodiscard]] const OptimizeResult& baseline() const noexcept { return baseline_; }

  /// Optimized netlist + original->new map for the given stuck-at faults.
  /// Empty fault set: a copy of the baseline. With `options().incremental`
  /// (the default) only the faults' forward cone is re-optimized and
  /// spliced; otherwise the full per-fault rebuild runs (sweep off),
  /// exactly the session-free path. A fault site outside the original
  /// netlist throws std::out_of_range in either mode. Single-threaded,
  /// like the optimizer.
  [[nodiscard]] OptimizeResult reoptimize(const std::map<rtl::Net, bool>& faults) const;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

private:
  [[nodiscard]] OptimizeResult full_rebuild(const std::map<rtl::Net, bool>& faults) const;

  const rtl::Netlist* original_;
  OptimizerOptions options_;
  OptimizeResult baseline_;
  detail::Builder::HashMap baseline_hash_;   ///< keyed by baseline net ids
  std::array<rtl::Net, 2> baseline_consts_{-1, -1};
  rtl::ConeTracer tracer_;                   ///< forward closure of the original
  mutable Stats stats_;
};

}  // namespace symbad::opt
