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
// The host list is the one part that grows with the launch, and every
// daemon gets it alike, so a launch builds it once: hosts_arg() packs the
// "--lmon-hosts=" entry into one immutable buffer, every daemon's argv holds
// that entry by reference (lmon::Arg), and each daemon's HostTable views
// the host names inside it. The offsets and the by-host order are indexed
// once per buffer and shared too. Nothing writes the buffer once it is
// built, so sharing it is sound; the last daemon, agent or launcher that
// holds the entry frees it.
//
// Rank is optional on the wire: bulk launchers that spawn each daemon
// individually pass --lmon-rank explicitly, while broadcast-style launchers
// (the tree-rsh agent hands every daemon an identical command line) omit it
// and the daemon derives its rank from its host's position in the list.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/types.hpp"
#include "comm/topology.hpp"
#include "common/argparse.hpp"
#include "common/bytes.hpp"

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

/// The rank-ordered host list a daemon recovers from "--lmon-hosts=": a
/// view of the comma-separated value inside the launch's one shared buffer,
/// plus that buffer's index. Empty segments ("a,,b") are dropped, as
/// split_csv drops them.
class HostTable {
 public:
  HostTable() = default;
  /// Views `csv` in place. The index is built once per view: a table made
  /// from the view the previous table was made from (every daemon of a
  /// launch parses the same one) shares that table's index. The memo keys
  /// on the view's SliceIdentity, which is sound because a shared buffer is
  /// never written.
  explicit HostTable(ByteSlice csv);

  [[nodiscard]] std::size_t size() const noexcept {
    return index_ == nullptr ? 0 : index_->entries.size();
  }
  /// The host of `rank`; throws std::out_of_range when rank >= size().
  [[nodiscard]] std::string_view at(std::size_t rank) const;
  /// The first rank whose host is `host`, or nullopt: a binary search of
  /// the by-host order.
  [[nodiscard]] std::optional<std::uint32_t> rank_of(
      std::string_view host) const;

 private:
  struct Entry {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };
  struct Index {
    std::vector<Entry> entries;          ///< by rank
    std::vector<std::uint32_t> by_host;  ///< ranks ordered by (host, rank)
  };
  static std::shared_ptr<const Index> index_of(const ByteSlice& csv);
  [[nodiscard]] std::string_view name_of(const Entry& e) const noexcept {
    return {reinterpret_cast<const char*>(csv_.data()) + e.offset, e.length};
  }

  ByteSlice csv_;
  std::shared_ptr<const Index> index_;
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

/// The "--lmon-hosts=" entry for the comma-separated host list `csv`, in
/// one new immutable buffer. Build it once per launch: every argv holding a
/// copy of the entry, and every HostTable parsed from one, shares it.
[[nodiscard]] Arg hosts_arg(std::string_view csv);

/// The host table of a hosts_arg entry: views the list inside the entry's
/// buffer (an owned entry is copied into one new buffer first), so a table
/// of the entry every daemon holds shares their index.
[[nodiscard]] HostTable hosts_table(const Arg& hosts);

/// Emits the "--lmon-*" argv for one daemon, followed by the tool's own
/// `extra` entries; `hosts` (from hosts_arg) is held, not copied, and
/// spec.hosts is not read. Pass nullopt as `rank` for launchers that cannot
/// vary the command line per daemon; the receiving side then resolves the
/// rank from the host list.
[[nodiscard]] Argv bootstrap_args(const BootstrapSpec& spec,
                                  std::optional<std::uint32_t> rank,
                                  const Arg& hosts,
                                  const std::vector<std::string>& extra = {});

/// Parses a daemon argv. `self_host` backs the rank-from-host fallback when
/// --lmon-rank is absent; pass the daemon's own hostname (or empty to
/// require an explicit rank). Returns nullopt when required parameters are
/// missing or inconsistent - which is what a daemon started outside
/// LaunchMON sees. The host table views the shared "--lmon-hosts=" entry
/// in place; a hand-written argv that owns its entry has it copied into one
/// new buffer.
[[nodiscard]] std::optional<BootstrapParams> parse_bootstrap(
    const Argv& args, std::string_view self_host = {});

}  // namespace lmon::comm
