#pragma once
// SAT sweeping: merge combinationally-equivalent nets, proven on one
// long-lived incremental solver.
//
// Candidates are grouped by random-pattern simulation signatures (64
// patterns per word, `rounds` words, seeded verif::Rng streams — one
// independent stream per cut point so signatures are a pure function of
// (netlist, seed)). Flip-flop outputs and primary inputs are the cut
// points: they get free random words, so a proven merge holds for *every*
// state, reachable or not — which is what keeps k-induction verdicts
// identical after merging. Each candidate is then checked with a miter
// gated behind an activation literal on the shared solver (the
// atpg::SatEngine pattern): UNSAT proves the merge, SAT refutes it, and
// the unit clause ~activation retires the miter either way so learned
// clauses about the circuit carry from proof to proof.

#include <cstdint>
#include <vector>

#include "rtl/netlist.hpp"

namespace symbad::opt {

class SatSweeper {
public:
  struct Options {
    int rounds = 4;                 ///< 64-pattern signature words per net, >= 1
    std::uint64_t seed = 0x0B715EEDULL;
    std::size_t max_proofs = 0;     ///< cap on SAT calls, 0 = unlimited
  };

  /// A proven merge: `net` computes `onto` (or its complement) for every
  /// input/state assignment. `onto` is always declared before `net`.
  struct Merge {
    rtl::Net net = -1;
    rtl::Net onto = -1;
    bool complement = false;
  };

  struct Stats {
    std::size_t candidates = 0;
    std::size_t proved = 0;
    std::size_t refuted = 0;
    std::uint64_t conflicts = 0;
  };

  explicit SatSweeper(const rtl::Netlist& netlist) : SatSweeper{netlist, Options{}} {}
  SatSweeper(const rtl::Netlist& netlist, Options options);

  /// Signature grouping + incremental proofs. Deterministic for a fixed
  /// (netlist, options). Merges are reported in declaration order of the
  /// merged net and never target flip-flops or inputs as victims.
  [[nodiscard]] std::vector<Merge> find_merges();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

private:
  const rtl::Netlist* netlist_;
  Options options_;
  Stats stats_;
};

}  // namespace symbad::opt
