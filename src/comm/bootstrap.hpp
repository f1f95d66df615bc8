// bootstrap.hpp - the daemon bootstrap payload and its argv wire form.
//
// Every launch strategy (serial rsh, tree rsh, RM bulk launch) ultimately
// has to hand each tool daemon the same bootstrap information: its place in
// the session (rank/size), the fabric tree shape, the per-session port, the
// front-end endpoint for the master's handshake, and the rank-ordered host
// list. The paper's RM integration passes it the way SLURM does - on the
// daemon's argv. This header is the one place that writes and parses that
// argv, so strategies cannot drift apart.
//
// Rank is optional on the wire: bulk launchers that spawn each daemon
// individually pass --lmon-rank explicitly, while broadcast-style launchers
// (the tree-rsh agent hands every daemon an identical command line) omit it
// and the daemon derives its rank from its host's position in the list.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/types.hpp"
#include "comm/topology.hpp"

namespace lmon::comm {

/// Session-wide bootstrap parameters (everything but the per-daemon rank).
struct BootstrapSpec {
  std::uint32_t size = 1;
  TopologySpec topology;
  cluster::Port port = 0;       ///< per-session fabric listen port
  std::string session;          ///< session cookie
  std::string fe_host;          ///< tool front end (master daemon connects)
  cluster::Port fe_port = 0;
  std::vector<std::string> hosts;  ///< daemon hosts in rank order
  /// Eager->rendezvous collective switch threshold in payload bytes, as the
  /// engine's tuner resolved it; 0 means "use this machine's costs"
  /// (CostModel::iccl_rndv_threshold_bytes).
  std::uint32_t rndv_threshold = 0;
  /// Self-healing: when set, daemons survive comm-daemon death by
  /// reparenting orphaned subtrees onto the nearest live ancestor and
  /// replaying in-flight collective state. Off by default - the historical
  /// behavior (drop the dead subtree) is what non-healing sessions pin.
  bool heal = false;
  /// Grace window (ms) an adopter waits for a dead child's orphans to
  /// reattach before retracting their unclaimed payloads; 0 = default.
  std::uint32_t heal_grace_ms = 0;
  /// Admission bound for the persistent multiplexed service: how many
  /// concurrent virtual sessions this tree accepts (0 = the default cap).
  /// The master daemon enforces it and rejects attaches beyond the bound.
  std::uint32_t max_sessions = 0;
};

/// The rank-ordered host list a daemon recovers from "--lmon-hosts=": the
/// comma-separated argument kept as one string, plus where each entry lies
/// in it. Empty segments ("a,,b") are dropped, as split_csv drops them.
class HostTable {
 public:
  HostTable() = default;
  explicit HostTable(std::string csv);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// The host of `rank`; throws std::out_of_range when rank >= size().
  [[nodiscard]] std::string_view at(std::size_t rank) const;
  /// The first rank whose host is `host`, or nullopt.
  [[nodiscard]] std::optional<std::uint32_t> rank_of(
      std::string_view host) const;

 private:
  struct Entry {
    std::size_t offset = 0;
    std::size_t length = 0;
  };
  std::string csv_;
  std::vector<Entry> entries_;
};

/// What a daemon recovers from its argv.
struct BootstrapParams {
  std::uint32_t rank = 0;
  std::uint32_t size = 1;
  TopologySpec topology;
  cluster::Port port = 0;
  std::string session;
  std::string fe_host;
  cluster::Port fe_port = 0;
  HostTable hosts;                   ///< daemon hosts in rank order
  std::uint32_t rndv_threshold = 0;  ///< 0 = this machine's costs
  bool heal = false;                 ///< self-healing tree recovery enabled
  std::uint32_t heal_grace_ms = 0;   ///< orphan-reattach grace; 0 = default
  std::uint32_t max_sessions = 0;    ///< virtual-session cap; 0 = default
};

/// Emits the "--lmon-*" argv for one daemon. Pass nullopt as `rank` for
/// launchers that cannot vary the command line per daemon; the receiving
/// side then resolves the rank from the host list.
[[nodiscard]] std::vector<std::string> bootstrap_args(
    const BootstrapSpec& spec, std::optional<std::uint32_t> rank);

/// The same argv with the host list given as its comma-separated
/// "--lmon-hosts=" value (spec.hosts is not read): for launchers that hold
/// the list in another form, or spawn many daemons from one list.
[[nodiscard]] std::vector<std::string> bootstrap_args(
    const BootstrapSpec& spec, std::optional<std::uint32_t> rank,
    std::string_view hosts_csv);

/// Parses a daemon argv. `self_host` backs the rank-from-host fallback when
/// --lmon-rank is absent; pass the daemon's own hostname (or empty to
/// require an explicit rank). Returns nullopt when required parameters are
/// missing or inconsistent - which is what a daemon started outside
/// LaunchMON sees.
[[nodiscard]] std::optional<BootstrapParams> parse_bootstrap(
    const std::vector<std::string>& args, std::string_view self_host = {});

}  // namespace lmon::comm
