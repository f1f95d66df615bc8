#include "comm/heal.hpp"

namespace lmon::comm {

std::vector<std::uint32_t> ancestor_chain(const Topology& topo,
                                          std::uint32_t rank) {
  std::vector<std::uint32_t> chain;
  auto up = topo.parent_of(rank);
  while (up) {
    chain.push_back(*up);
    up = topo.parent_of(*up);
  }
  return chain;
}

std::optional<std::uint32_t> nearest_live_ancestor(
    const Topology& topo, std::uint32_t rank,
    const std::set<std::uint32_t>& dead) {
  for (const std::uint32_t a : ancestor_chain(topo, rank)) {
    if (dead.count(a) == 0) return a;
  }
  return std::nullopt;
}

std::vector<Adoption> reparent_plan(const Topology& topo,
                                    const std::set<std::uint32_t>& dead) {
  std::vector<Adoption> plan;
  for (std::uint32_t r = 0; r < topo.size(); ++r) {
    if (dead.count(r) != 0) continue;
    const auto parent = topo.parent_of(r);
    if (!parent || dead.count(*parent) == 0) continue;
    const auto adopter = nearest_live_ancestor(topo, r, dead);
    if (adopter) plan.push_back({r, *adopter});
  }
  return plan;
}

}  // namespace lmon::comm
