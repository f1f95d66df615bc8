#include "comm/bootstrap.hpp"

#include <stdexcept>

#include "common/argparse.hpp"

namespace lmon::comm {

HostTable::HostTable(std::string csv) : csv_(std::move(csv)) {
  std::size_t start = 0;
  while (start < csv_.size()) {
    std::size_t comma = csv_.find(',', start);
    if (comma == std::string::npos) comma = csv_.size();
    if (comma > start) entries_.push_back(Entry{start, comma - start});
    start = comma + 1;
  }
}

std::string_view HostTable::at(std::size_t rank) const {
  if (rank >= entries_.size()) throw std::out_of_range("HostTable::at");
  return std::string_view(csv_).substr(entries_[rank].offset,
                                       entries_[rank].length);
}

std::optional<std::uint32_t> HostTable::rank_of(std::string_view host) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (at(i) == host) return static_cast<std::uint32_t>(i);
  }
  return std::nullopt;
}

std::vector<std::string> bootstrap_args(const BootstrapSpec& spec,
                                        std::optional<std::uint32_t> rank) {
  return bootstrap_args(spec, rank, join_csv(spec.hosts));
}

std::vector<std::string> bootstrap_args(const BootstrapSpec& spec,
                                        std::optional<std::uint32_t> rank,
                                        std::string_view hosts_csv) {
  std::vector<std::string> args;
  if (rank) args.push_back("--lmon-rank=" + std::to_string(*rank));
  args.push_back("--lmon-size=" + std::to_string(spec.size));
  args.push_back("--lmon-topo=" + spec.topology.to_string());
  args.push_back("--lmon-port=" + std::to_string(spec.port));
  if (spec.rndv_threshold != 0) {
    args.push_back("--lmon-rndv-threshold=" +
                   std::to_string(spec.rndv_threshold));
  }
  if (spec.heal) {
    args.push_back("--lmon-heal=1");
    if (spec.heal_grace_ms != 0) {
      args.push_back("--lmon-heal-grace-ms=" +
                     std::to_string(spec.heal_grace_ms));
    }
  }
  if (spec.max_sessions != 0) {
    args.push_back("--lmon-max-sessions=" +
                   std::to_string(spec.max_sessions));
  }
  args.push_back("--lmon-session=" + spec.session);
  if (!spec.fe_host.empty()) {
    args.push_back("--lmon-fe-host=" + spec.fe_host);
    args.push_back("--lmon-fe-port=" + std::to_string(spec.fe_port));
  }
  std::string hosts_arg = "--lmon-hosts=";
  hosts_arg += hosts_csv;
  args.push_back(std::move(hosts_arg));
  return args;
}

std::optional<BootstrapParams> parse_bootstrap(
    const std::vector<std::string>& args, std::string_view self_host) {
  BootstrapParams p;
  const auto size = arg_int(args, "--lmon-size=");
  const auto port = arg_int(args, "--lmon-port=");
  auto hosts = arg_value(args, "--lmon-hosts=");
  const auto topo = arg_value(args, "--lmon-topo=");
  if (!size || !port || !hosts || !topo) return std::nullopt;
  p.size = static_cast<std::uint32_t>(*size);
  p.port = static_cast<cluster::Port>(*port);
  p.hosts = HostTable(std::move(*hosts));
  p.session = arg_value(args, "--lmon-session=").value_or("s0");
  p.fe_host = arg_value(args, "--lmon-fe-host=").value_or("");
  p.fe_port = static_cast<cluster::Port>(
      arg_int(args, "--lmon-fe-port=").value_or(0));
  p.rndv_threshold = static_cast<std::uint32_t>(
      arg_int(args, "--lmon-rndv-threshold=").value_or(0));
  p.heal = arg_int(args, "--lmon-heal=").value_or(0) != 0;
  p.heal_grace_ms = static_cast<std::uint32_t>(
      arg_int(args, "--lmon-heal-grace-ms=").value_or(0));
  p.max_sessions = static_cast<std::uint32_t>(
      arg_int(args, "--lmon-max-sessions=").value_or(0));

  const auto spec = TopologySpec::parse(*topo);
  if (!spec) return std::nullopt;
  p.topology = *spec;
  if (p.topology.arity == 0) p.topology.arity = 1;

  if (const auto rank = arg_int(args, "--lmon-rank=")) {
    p.rank = static_cast<std::uint32_t>(*rank);
  } else {
    // Broadcast-style launch: every daemon got the same argv; recover the
    // rank from this host's position in the rank-ordered host list.
    if (self_host.empty()) return std::nullopt;
    const auto index = p.hosts.rank_of(self_host);
    if (!index) return std::nullopt;
    p.rank = *index;
  }

  if (p.size == 0 || p.rank >= p.size) return std::nullopt;
  if (p.hosts.size() != p.size) return std::nullopt;
  return p;
}

}  // namespace lmon::comm
