// startup.hpp - TBON startup orchestration (the Fig. 6 comparison).
//
// adhoc_launch() is the MRNet-native path: the front end serially
// rsh-launches every comm daemon and back-end daemon, each with the
// topology on its command line. The command lines share one copy of that
// text (adhoc_topology_arg()), and every daemon of the launch decodes it
// once between them (adhoc_place()). Its cost is (per-rsh session cost) x
// (process count) and it dies outright when the FE exhausts its fork limit.
//
// The LaunchMON path needs no helper here: the tool calls the FE API with
// the packed topology as piggybacked data; see tools/stat for the pattern.
#pragma once

#include <functional>
#include <optional>
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

/// The "--tbon-topology=" entry for `topo`: its packed form, hex-encoded as
/// MRNet's topology file would carry it, in one new immutable buffer. Build
/// it once per launch: every argv holding a copy of it shares that buffer.
[[nodiscard]] Arg adhoc_topology_arg(const Topology& topo);

/// The argv a daemon at `index` receives in the ad hoc path: the launch's
/// `topology` entry (held, not copied) and the daemon's index.
[[nodiscard]] Argv adhoc_args(const Arg& topology, int index);

/// Where an ad hoc daemon sits in the overlay.
struct AdHocPlace {
  Topology topology;
  int index = 0;
};

/// Where an ad hoc daemon sits, read from its argv: the "--tbon-topology="
/// entry, decoded once per view (LastView) so the daemons of one launch
/// share one Topology, and "--tbon-index=". nullopt when either is missing,
/// the topology is malformed or not valid(), or the index is no daemon's.
[[nodiscard]] std::optional<AdHocPlace> adhoc_place(const Argv& args);

}  // namespace lmon::tbon
