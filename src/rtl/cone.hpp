#pragma once
// Structural closures over a gate array: the one place that answers
// "which nets can reach, or be reached from, these nets across register
// boundaries". Two entry points, one per direction:
//
//  * backward cone of influence (`cone_of_influence`): from the nets a
//    property observes, which nets — traced back through gate operands —
//    can influence them at any frame? Model checking encodes only those,
//    the optimizer keeps only those alive, the lint fault prune drops
//    fault sites outside them and lint counts the logic outside them.
//  * forward fault cones (`ConeTracer`): from stuck-at fault sites, which
//    nets can differ from the good circuit, per time frame (ATPG) or at
//    any frame (the incremental optimizer's re-optimization set, and
//    lint's reach of the primary inputs).
//
// Both directions cross registers by one rule: a flip-flop links its
// next-state net to itself. Both run over a span of gates rather than a
// Netlist, so lint's unvalidated views use them too: operands outside the
// span and kinds outside the GateKind enum are skipped.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "rtl/netlist.hpp"

namespace symbad::rtl {

/// Backward cone of influence of `roots`: result[net] != 0 iff `net`'s
/// value at *some* time frame can influence some root at some frame. The
/// walk follows gate operands and crosses register boundaries (a flip-flop
/// in the cone pulls in its next-state net), so the closure is valid for
/// every frame of an unrolling. Result is indexed like `gates`. Throws
/// std::out_of_range for a root outside `gates`.
[[nodiscard]] std::vector<char> cone_of_influence(std::span<const Gate> gates,
                                                  const std::vector<Net>& roots);

/// Forward closure. Construction flattens the combinational fanout into
/// compressed-sparse-row arrays (one offsets array, one readers array) and
/// records one (next-state net, flip-flop) crossing edge per entry of
/// `registers` that is a flip-flop with an in-range next-state net; every
/// query then spreads marks over those arrays.
class ConeTracer {
public:
  ConeTracer(std::span<const Gate> gates, std::span<const Net> registers);

  /// Per-frame fault cone of a stuck-at fault forced in every frame:
  /// cone[f][net] != 0 iff `net` at frame f can differ from the good
  /// circuit. Flip-flops whose next-state net fell in frame f-1's cone
  /// seed frame f (the corruption crosses the register boundary). Throws
  /// std::out_of_range for a fault net outside the gates.
  [[nodiscard]] std::vector<std::vector<char>> fault_cones(Net fault_net,
                                                           int frames) const;

  /// Frame-independent fixpoint of `fault_cones`: closure[net] != 0 iff
  /// `net` can differ from the good circuit at *some* frame of *any*
  /// unrolling — the forward closure of the fault sites under combinational
  /// fanout AND register crossing (a flip-flop whose next-state net is in
  /// the closure joins it, and its own readers follow). This is the set of
  /// nets the incremental optimizer must re-optimize per fault; everything
  /// outside keeps its image in the cached optimized baseline. Throws
  /// std::out_of_range for a site outside the gates.
  [[nodiscard]] std::vector<char> fault_cone_closure(
      const std::vector<Net>& fault_sites) const;

private:
  /// Marks everything reachable from the (already marked) `frontier` under
  /// combinational fanout and, with `cross_registers`, register crossing.
  void spread(std::vector<char>& marks, std::vector<Net>& frontier,
              bool cross_registers) const;
  /// Marks every flip-flop whose next-state net is marked in `from`.
  void cross(const std::vector<char>& from, std::vector<char>& marks,
             std::vector<Net>& frontier) const;
  void check_seed(Net net) const;

  std::vector<std::size_t> fanout_begin_;       ///< net -> first reader slot (CSR)
  std::vector<Net> fanout_;                     ///< combinational readers, by net
  std::vector<std::pair<Net, Net>> dff_edges_;  ///< (next-state net, dff net)
};

}  // namespace symbad::rtl
