#pragma once
// Explicit-state reachability engine for small RTL blocks.
//
// The paper's §3.4 observes that symbolic methods hit state explosion; for
// the small interface FSMs of level 4, exhaustive enumeration is feasible
// and gives *definitive* answers that cross-check the SAT engines. States
// are packed flip-flop vectors; every (state, input-combination) edge is
// explored from reset.

#include <cstdint>

#include "mc/mc.hpp"
#include "rtl/netlist.hpp"

namespace symbad::mc {

struct ExplicitResult {
  CheckStatus status = CheckStatus::no_cex_within_bound;
  bool exhaustive = false;  ///< the full reachable space was enumerated
  std::uint64_t states_visited = 0;
  std::uint64_t edges_explored = 0;
};

struct ExplicitOptions {
  std::uint64_t max_states = 1u << 20;
  int max_input_bits = 16;  ///< refuse designs with more inputs than this (<= 63)
};

/// Exhaustively checks `property` (invariant or next-implication) on the
/// reachable state space of `netlist`. Bounded-response properties are not
/// supported by this engine (status = no_cex_within_bound, exhaustive =
/// false).
[[nodiscard]] ExplicitResult check_explicit(const rtl::Netlist& netlist,
                                            const Property& property,
                                            const ExplicitOptions& options = {});

/// Number of reachable states from reset (diagnostics / reports).
[[nodiscard]] std::uint64_t count_reachable_states(const rtl::Netlist& netlist,
                                                   const ExplicitOptions& options = {});

}  // namespace symbad::mc
