// startup.hpp - TBON startup orchestration (the Fig. 6 comparison).
//
// adhoc_launch() is the MRNet-native path: the front end serially
// rsh-launches every comm daemon and back-end daemon, passing the topology
// on each command line. Its cost is (per-rsh session cost) x (process
// count) and it dies outright when the FE exhausts its fork limit.
//
// The LaunchMON path needs no helper here: the tool calls the FE API with
// the packed topology as piggybacked data; see tools/stat for the pattern.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cluster/process.hpp"
#include "rsh/launchers.hpp"
#include "tbon/topology.hpp"

namespace lmon::tbon {

/// Serially rsh-launches the overlay: comm daemons first (so parents exist
/// when children dial), then back ends. `be_extra_args` is appended to each
/// back-end command line. Callback delivers the rsh outcome; the TBON
/// root's on_tree_ready fires independently once links are up.
void adhoc_launch(cluster::Process& fe, const Topology& topo,
                  const std::string& comm_exe, const std::string& be_exe,
                  const std::vector<std::string>& be_extra_args,
                  std::function<void(rsh::LaunchOutcome)> cb);

/// Builds the argv a daemon at `index` receives in the ad hoc path.
Argv adhoc_args(const Topology& topo, int index);

}  // namespace lmon::tbon
