#include "comm/bootstrap.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace lmon::comm {

namespace {

constexpr std::string_view kHostsKey = "--lmon-hosts=";

std::string_view chars(const ByteSlice& s) {
  return {reinterpret_cast<const char*>(s.data()), s.size()};
}

}  // namespace

std::shared_ptr<const HostTable::Index> HostTable::index_of(
    const ByteSlice& csv) {
  // The last indexed view and its index, both held weakly: the memo keeps
  // nothing alive, and a view nobody holds any more is indexed afresh.
  thread_local struct {
    SliceIdentity view;
    std::weak_ptr<const Index> index;
  } last;
  if (last.view.matches(csv)) {
    if (auto index = last.index.lock()) return index;
  }
  auto index = std::make_shared<Index>();
  const std::string_view text = chars(csv);
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) comma = text.size();
    if (comma > start) {
      index->entries.push_back(Entry{static_cast<std::uint32_t>(start),
                                     static_cast<std::uint32_t>(comma - start)});
    }
    start = comma + 1;
  }
  const auto name = [&](std::uint32_t rank) {
    const Entry& e = index->entries[rank];
    return text.substr(e.offset, e.length);
  };
  index->by_host.resize(index->entries.size());
  std::iota(index->by_host.begin(), index->by_host.end(), 0u);
  // Equal hosts in rank order, so a search lands on the first rank.
  std::sort(index->by_host.begin(), index->by_host.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const int c = name(a).compare(name(b));
              return c < 0 || (c == 0 && a < b);
            });
  last = {SliceIdentity(csv), index};
  return index;
}

HostTable::HostTable(ByteSlice csv)
    : csv_(std::move(csv)), index_(index_of(csv_)) {}

std::string_view HostTable::at(std::size_t rank) const {
  if (rank >= size()) throw std::out_of_range("HostTable::at");
  return name_of(index_->entries[rank]);
}

std::optional<std::uint32_t> HostTable::rank_of(std::string_view host) const {
  if (index_ == nullptr) return std::nullopt;
  const auto& order = index_->by_host;
  const auto it = std::lower_bound(
      order.begin(), order.end(), host,
      [this](std::uint32_t rank, std::string_view h) {
        return name_of(index_->entries[rank]) < h;
      });
  if (it == order.end() || name_of(index_->entries[*it]) != host) {
    return std::nullopt;
  }
  return *it;
}

Arg hosts_arg(std::string_view csv) {
  std::string text;
  text.reserve(kHostsKey.size() + csv.size());
  text += kHostsKey;
  text += csv;
  return Arg::shared(text);
}

HostTable hosts_table(const Arg& hosts) {
  const Arg shared =
      hosts.slice() != nullptr ? hosts : Arg::shared(hosts.view());
  return HostTable(shared.slice()->sub(kHostsKey.size(),
                                       shared.size() - kHostsKey.size()));
}

Argv bootstrap_args(const BootstrapSpec& spec,
                    std::optional<std::uint32_t> rank, const Arg& hosts,
                    const std::vector<std::string>& extra) {
  constexpr std::size_t kMaxBootstrapEntries = 12;
  Argv args;
  args.reserve(kMaxBootstrapEntries + extra.size());
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
  args.push_back(hosts);
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

std::optional<BootstrapParams> parse_bootstrap(
    const Argv& args, std::string_view self_host) {
  BootstrapParams p;
  const auto size = arg_int(args, "--lmon-size=");
  const auto port = arg_int(args, "--lmon-port=");
  const Arg* hosts = arg_entry(args, kHostsKey);
  const auto topo = arg_value(args, "--lmon-topo=");
  if (!size || !port || hosts == nullptr || !topo) return std::nullopt;
  p.size = static_cast<std::uint32_t>(*size);
  p.port = static_cast<cluster::Port>(*port);
  p.hosts = hosts_table(*hosts);
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
