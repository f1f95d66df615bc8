#include "tbon/startup.hpp"

namespace lmon::tbon {

Argv adhoc_args(const Topology& topo, int index) {
  Argv args;
  args.push_back("--tbon-topology=" + to_hex(topo.pack()));
  args.push_back("--tbon-index=" + std::to_string(index));
  return args;
}

void adhoc_launch(cluster::Process& fe, const Topology& topo,
                  const std::string& comm_exe, const std::string& be_exe,
                  const std::vector<std::string>& be_extra_args,
                  std::function<void(rsh::LaunchOutcome)> cb) {
  std::vector<rsh::LaunchTarget> targets;
  const auto& nodes = topo.nodes();
  // Comm daemons first, in index order (parents before children since
  // balanced() lays them out breadth-first).
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].is_backend) continue;
    targets.push_back(rsh::LaunchTarget{
        nodes[i].host, comm_exe, adhoc_args(topo, static_cast<int>(i))});
  }
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (!nodes[i].is_backend) continue;
    auto args = adhoc_args(topo, static_cast<int>(i));
    args.insert(args.end(), be_extra_args.begin(), be_extra_args.end());
    targets.push_back(
        rsh::LaunchTarget{nodes[i].host, be_exe, std::move(args)});
  }
  rsh::SerialRshLauncher::launch(fe, std::move(targets), std::move(cb));
}

}  // namespace lmon::tbon
