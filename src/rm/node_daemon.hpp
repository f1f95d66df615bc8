// node_daemon.hpp - per-node RM daemon (slurmd-like).
//
// Executes tree-forwarded launch and kill requests: spawns the local tasks
// or tool daemon, fans the remaining node list out to up to `fanout` child
// subtrees, and aggregates acknowledgements (including the per-task
// descriptors that become the MPIR proctable) back toward the launcher.
// This tree is the "efficient platform specific mechanism" LaunchMON rides
// on instead of per-node rsh.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/process.hpp"
#include "obs/trace.hpp"
#include "rm/protocol.hpp"

namespace lmon::rm {

class NodeDaemon : public cluster::Program {
 public:
  [[nodiscard]] std::string_view name() const override { return "slurmd"; }

  void on_start(cluster::Process& self) override;
  void on_message(cluster::Process& self, const cluster::ChannelPtr& ch,
                  cluster::Message msg) override;
  void on_channel_closed(cluster::Process& self,
                         const cluster::ChannelPtr& ch) override;

  /// How long a node daemon waits for its subtree before failing the launch.
  static constexpr sim::Time kSubtreeTimeout = sim::seconds(60);

 private:
  using Key = std::uint64_t;

  struct Pending {
    std::uint32_t reply_seq = 0;             ///< seq to echo upstream
    cluster::ChannelPtr reply_to;            ///< upstream channel
    bool is_kill = false;
    int awaiting_local = 0;                  ///< local spawns not yet started
    int awaiting_children = 0;               ///< subtree acks outstanding
    bool failed = false;
    std::string error;
    std::vector<TaskDesc> entries;           ///< aggregated descriptors
    std::uint32_t killed = 0;                ///< aggregated kill count
    std::set<cluster::Channel::Id> child_channels;
    bool done = false;
    obs::SpanId span = obs::kNoSpan;         ///< per-level tree-launch span
  };

  void handle_launch(cluster::Process& self, const cluster::ChannelPtr& ch,
                     const TreeLaunchReq& req);
  void handle_kill(cluster::Process& self, const cluster::ChannelPtr& ch,
                   const TreeKillReq& req);
  void forward_subtrees(cluster::Process& self, Key key,
                        const TreeLaunchReq& req);
  void forward_kill_subtrees(cluster::Process& self, Key key,
                             const TreeKillReq& req);
  void child_failed(cluster::Process& self, Key key, const std::string& why);
  void maybe_complete(cluster::Process& self, Key key);
  void arm_timeout(cluster::Process& self, Key key);

  /// Splits nodes[1..] into up to `fanout` contiguous chunks (views of
  /// `nodes`).
  static std::vector<std::span<const AllocatedNode>> split_subtrees(
      const std::vector<AllocatedNode>& nodes, std::uint32_t fanout);

  std::map<Key, Pending> pending_;
  std::map<std::uint32_t, Key> child_seq_to_key_;   ///< downstream seq -> op
  std::map<cluster::Channel::Id, Key> channel_to_key_;
  /// Children we spawned, for kill: (jobid, mode, session) -> pids.
  std::map<std::string, std::vector<cluster::Pid>> spawned_;
  Key next_key_ = 1;
  std::uint32_t next_seq_ = 1;

  static std::string spawn_group(JobId jobid, LaunchMode mode,
                                 const std::string& session);
  /// The daemons' "--lmon-hosts=" entry for `hosts`, built once per launch.
  static Arg hosts_arg(const HostList& hosts);
};

}  // namespace lmon::rm
