#include "opt/sweep.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>

#include "rtl/cnf.hpp"
#include "sat/solver.hpp"
#include "verif/rng.hpp"

namespace symbad::opt {

using rtl::Net;

SatSweeper::SatSweeper(const rtl::Netlist& netlist, Options options)
    : netlist_{&netlist}, options_{options} {
  if (options_.rounds < 1) throw std::invalid_argument{"opt: sweep needs rounds >= 1"};
  netlist.validate();
}

std::vector<SatSweeper::Merge> SatSweeper::find_merges() {
  const auto& n = *netlist_;
  const std::size_t rounds = static_cast<std::size_t>(options_.rounds);
  const std::size_t count = n.gate_count();

  // ---- random-pattern signatures (64 parallel patterns per word) --------
  // Cut points (inputs, flip-flop outputs) draw one independent Rng stream
  // each, so the signature of every net is a pure function of (netlist,
  // seed) — independent of evaluation order or platform. Round r's words
  // are sig[r * count, (r + 1) * count), one evaluator pass each.
  std::vector<std::uint64_t> sig(count * rounds, 0);
  verif::Rng base{options_.seed};
  for (std::size_t i = 0; i < count; ++i) {
    if (!rtl::is_source(n.gate(static_cast<Net>(i)).kind)) continue;
    auto stream = base.fork(static_cast<std::uint64_t>(i));
    for (std::size_t r = 0; r < rounds; ++r) sig[r * count + i] = stream.next();
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    rtl::evaluate(n, std::span<std::uint64_t>{sig}.subspan(r * count, count));
  }

  // ---- candidate classes: equal-or-complement signatures ----------------
  // The canonical key has bit 0 of word 0 cleared; the stored polarity says
  // whether the net equals the key or its complement.
  std::map<std::vector<std::uint64_t>, std::vector<std::pair<Net, bool>>> classes;
  std::vector<std::uint64_t> key(rounds);
  for (std::size_t i = 0; i < count; ++i) {
    const bool pol = (sig[i] & 1) != 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      key[r] = pol ? ~sig[r * count + i] : sig[r * count + i];
    }
    classes[key].emplace_back(static_cast<Net>(i), pol);
  }

  // ---- incremental proofs on one long-lived solver ----------------------
  sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  std::optional<rtl::Frame> frame;  // encoded lazily, free state = cut points
  const auto frame_lit = [&](Net net) {
    if (!frame) {
      rtl::CnfEncoder::Options opts;
      opts.state = rtl::StateInit::free_state;
      frame = encoder.encode(opts);
    }
    return frame->lit(net);
  };

  std::vector<Merge> merges;
  std::size_t solver_checks = 0;  // real SAT calls, the max_proofs budget
  for (const auto& [class_key, members] : classes) {
    if (members.size() < 2) continue;
    const auto [rep, rep_pol] = members.front();
    for (std::size_t k = 1; k < members.size(); ++k) {
      const auto [cand, cand_pol] = members[k];
      if (!rtl::is_combinational(n.gate(cand).kind)) continue;
      const bool complement = cand_pol != rep_pol;
      ++stats_.candidates;
      const sat::Lit a = frame_lit(rep);
      const sat::Lit b = frame_lit(cand);
      const sat::Lit want = complement ? ~a : a;
      if (b == want) {  // already literally identical in the encoding
        ++stats_.proved;
        merges.push_back(Merge{cand, rep, complement});
        continue;
      }
      // The budget caps *solver* calls only — literally-identical merges
      // above are free and must not starve the real proofs.
      if (options_.max_proofs > 0 && solver_checks >= options_.max_proofs) {
        continue;  // budget exhausted: leave remaining candidates unmerged
      }
      ++solver_checks;
      // Miter gated behind a fresh activation literal: assuming act asks
      // for an assignment where the two nets differ (in the expected
      // polarity); UNSAT proves the merge for every input/state.
      const sat::Lit act = sat::Lit::positive(solver.new_var());
      solver.add_ternary(~act, want, b);
      solver.add_ternary(~act, ~want, ~b);
      const bool differ = solver.solve({act}) == sat::Result::sat;
      stats_.conflicts += solver.last_solve_statistics().conflicts;
      solver.add_unit(~act);  // retire the miter either way
      if (differ) {
        ++stats_.refuted;
      } else {
        ++stats_.proved;
        merges.push_back(Merge{cand, rep, complement});
      }
    }
  }

  std::sort(merges.begin(), merges.end(),
            [](const Merge& x, const Merge& y) { return x.net < y.net; });
  return merges;
}

}  // namespace symbad::opt
