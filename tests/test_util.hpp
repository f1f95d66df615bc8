// test_util.hpp - shared fixtures for integration tests and benches.
#pragma once

#include <memory>

#include "apps/mpi_app.hpp"
#include "apps/test_programs.hpp"
#include "cluster/machine.hpp"
#include "rm/resource_manager.hpp"
#include "rsh/launchers.hpp"
#include "rsh/rshd.hpp"
#include "simkernel/simulator.hpp"

namespace lmon::testing {

/// A booted simulated cluster: RM installed, rshd everywhere, standard
/// program images registered. Construct, then drive `sim`.
struct TestCluster {
  explicit TestCluster(int compute_nodes, int middleware_nodes = 0,
                       cluster::CostModel costs = {},
                       std::uint64_t seed = 42)
      : simulator(seed),
        machine(simulator, cluster::MachineConfig{compute_nodes,
                                                  middleware_nodes, "atlas",
                                                  costs}) {
    auto st = rm::install(machine);
    if (!st.is_ok()) throw std::runtime_error("rm install: " + st.to_string());
    if (costs.has_remote_access) {
      st = rsh::install(machine);
      if (!st.is_ok()) {
        throw std::runtime_error("rshd install: " + st.to_string());
      }
      rsh::install_tree_agent(machine);
    }
    apps::MpiApp::install(machine);
    apps::SleeperDaemon::install(machine);
    apps::HelloBeDaemon::install(machine);
    // Let the RM/rshd daemons finish booting before tests launch work.
    simulator.run(sim::ms(50));
  }

  /// Spawns a scripted tool front end on the FE node.
  cluster::Pid spawn_fe(apps::ScriptedFrontEnd::Script script,
                        double image_mb = 6.0) {
    cluster::SpawnOptions opts;
    opts.executable = "tool_fe";
    opts.image_mb = image_mb;
    auto res = machine.front_end().spawn(
        std::make_unique<apps::ScriptedFrontEnd>(std::move(script)),
        std::move(opts));
    if (!res.is_ok()) {
      throw std::runtime_error("spawn_fe: " + res.status.to_string());
    }
    return res.value;
  }

  /// Runs the simulation until `pred` holds or `timeout` elapses. Returns
  /// true when the predicate fired. A wait that times out leaves now() just
  /// past the deadline, at the first event or timer firing after it.
  template <typename Pred>
  bool run_until(Pred pred, sim::Time timeout = sim::seconds(300)) {
    const sim::Time deadline = simulator.now() + timeout;
    while (!pred()) {
      if (!simulator.step_within(deadline)) return pred();
    }
    return true;
  }

  sim::Simulator simulator;
  cluster::Machine machine;
};

}  // namespace lmon::testing
