#include "tbon/startup.hpp"

#include "common/argparse.hpp"

namespace lmon::tbon {

namespace {

constexpr std::string_view kTopologyKey = "--tbon-topology=";

}  // namespace

Arg adhoc_topology_arg(const Topology& topo) {
  return Arg::shared(std::string(kTopologyKey) + to_hex(topo.pack()));
}

Argv adhoc_args(const Arg& topology, int index) {
  return {topology, "--tbon-index=" + std::to_string(index)};
}

std::optional<AdHocPlace> adhoc_place(const Argv& args) {
  const Arg* entry = arg_entry(args, kTopologyKey);
  const auto index = arg_int(args, "--tbon-index=");
  if (entry == nullptr || !index) return std::nullopt;
  const Arg shared =
      entry->slice() != nullptr ? *entry : Arg::shared(entry->view());
  thread_local LastView<Topology> last;
  auto topo = last.get(
      *shared.slice(), [&shared](const ByteSlice&) -> std::optional<Topology> {
        auto packed = from_hex(shared.view().substr(kTopologyKey.size()));
        if (!packed) return std::nullopt;
        auto topo = Topology::unpack(
            ByteSlice(std::make_shared<const Bytes>(std::move(*packed))));
        if (!topo || !topo->valid()) return std::nullopt;
        return topo;
      });
  if (!topo || *index <= 0 ||
      *index >= static_cast<std::int64_t>(topo->size())) {
    return std::nullopt;
  }
  return AdHocPlace{std::move(*topo), static_cast<int>(*index)};
}

void adhoc_launch(cluster::Process& fe, const Topology& topo,
                  const std::string& comm_exe, const std::string& be_exe,
                  const std::vector<std::string>& be_extra_args,
                  std::function<void(rsh::LaunchOutcome)> cb) {
  std::vector<rsh::LaunchTarget> targets;
  const auto& nodes = topo.nodes();
  const Arg topology = adhoc_topology_arg(topo);
  // Comm daemons first, in index order (parents before children since
  // balanced() lays them out breadth-first).
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].is_backend) continue;
    targets.push_back(rsh::LaunchTarget{
        nodes[i].host, comm_exe, adhoc_args(topology, static_cast<int>(i))});
  }
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (!nodes[i].is_backend) continue;
    auto args = adhoc_args(topology, static_cast<int>(i));
    args.insert(args.end(), be_extra_args.begin(), be_extra_args.end());
    targets.push_back(
        rsh::LaunchTarget{nodes[i].host, be_exe, std::move(args)});
  }
  rsh::SerialRshLauncher::launch(fe, std::move(targets), std::move(cb));
}

}  // namespace lmon::tbon
