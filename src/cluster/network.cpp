#include "cluster/network.hpp"

#include <algorithm>

namespace lmon::cluster {

sim::Time NetworkModel::base_latency(NodeId a, NodeId b) const {
  return a == b ? costs_.local_latency : costs_.net_latency;
}

sim::Time NetworkModel::jitter(sim::Time base) {
  if (costs_.net_jitter <= 0.0) return base;
  const double factor =
      rng_.normal(1.0, costs_.net_jitter);
  return std::max<sim::Time>(1, static_cast<sim::Time>(
                                    static_cast<double>(base) * factor));
}

sim::Time NetworkModel::transfer_time(NodeId a, NodeId b, std::size_t bytes) {
  return jitter(costs_.wire_time(static_cast<double>(bytes), a == b));
}

sim::Time NetworkModel::connect_time(NodeId a, NodeId b) {
  // Three-way handshake: ~1.5 RTT of small packets, plus accept processing.
  return jitter(3 * base_latency(a, b) + costs_.connect_cost);
}

}  // namespace lmon::cluster
