// heal.hpp - pure subtree-reparent math for self-healing trees.
//
// When a comm daemon dies, the ranks whose parent chain ran through it must
// be re-homed onto survivors. Everything here is a pure function of
// (Topology, dead-set), which keeps "who adopts whom" testable without
// booting a fabric.
//
//   - ancestor_chain: the path the live climb walks. comm::TreeNode asks
//     its layer for the chain above the lost parent; the ICCL answers with
//     this function, the TBON with its TopoNode::parent links.
//   - nearest_live_ancestor / reparent_plan: the reference answer for that
//     climb. Each orphan attaches to its first surviving ancestor, so an
//     adoption never changes which subtree a rank's payload transits (the
//     adopter was already on the orphan's root path) - the invariant the
//     collective-replay rules rely on. The self-heal suite checks every
//     healed tree against it.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "comm/topology.hpp"

namespace lmon::comm {

/// One orphan -> adopter edge of a recovery plan.
struct Adoption {
  std::uint32_t orphan = 0;
  std::uint32_t new_parent = 0;

  friend bool operator==(const Adoption& a, const Adoption& b) {
    return a.orphan == b.orphan && a.new_parent == b.new_parent;
  }
};

/// Ancestor chain of `rank` from its parent up to (and including) the root,
/// in climb order. Empty for the root and for out-of-range ranks.
[[nodiscard]] std::vector<std::uint32_t> ancestor_chain(const Topology& topo,
                                                        std::uint32_t rank);

/// First ancestor of `rank` (strictly above it) not in `dead`. nullopt when
/// the whole chain up to and including the root is dead, or `rank` is the
/// root / out of range.
[[nodiscard]] std::optional<std::uint32_t> nearest_live_ancestor(
    const Topology& topo, std::uint32_t rank,
    const std::set<std::uint32_t>& dead);

/// Full recovery plan for a dead-set: every live rank whose parent is dead
/// is adopted by its nearest live ancestor. Ranks inside `dead` are skipped
/// (they have nothing to reattach). Sorted by orphan rank. Orphans whose
/// entire ancestor chain is dead (root loss) are omitted - they are
/// unrecoverable without a new root.
[[nodiscard]] std::vector<Adoption> reparent_plan(
    const Topology& topo, const std::set<std::uint32_t>& dead);

}  // namespace lmon::comm
