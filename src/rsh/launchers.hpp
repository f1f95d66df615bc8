// launchers.hpp - ad hoc daemon launching strategies (the paper's baseline).
//
// Two strategies from §2: "Most implementations have the tool front end
// spawn each remote daemon sequentially; others employ a tree-based protocol
// allowing daemons that the tool front end launches to spawn children
// daemons, and so on."
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/process.hpp"
#include "comm/launch_strategy.hpp"
#include "obs/trace.hpp"
#include "rsh/client.hpp"

namespace lmon::rsh {

inline constexpr cluster::Port kTreeAgentPort = 516;
inline constexpr cluster::Port kTreeReportPort = 517;

struct LaunchTarget {
  std::string host;
  std::string executable;
  Argv args;
};

struct LaunchOutcome {
  Status status;
  /// (host, pid) for each daemon that was started.
  std::vector<std::pair<std::string, cluster::Pid>> daemons;
  /// Open rsh sessions keeping serial-launched daemons alive. The caller
  /// owns these; dropping/closing them kills the daemons.
  std::vector<cluster::ChannelPtr> sessions;
  /// Tree launch only: the ack channels the root agents connected back on.
  /// Agents treat the loss of this channel as "session over" and reap their
  /// local daemon, so closing these tears the whole tree down cleanly.
  std::vector<cluster::ChannelPtr> ack_channels;
};

/// Sequential front-end rsh launch: one blocking rsh per target, in order.
/// Cost is ~(session cost) x (target count); a fork failure aborts the whole
/// launch, reproducing the paper's hard failure at 512 nodes.
class SerialRshLauncher {
 public:
  using Callback = std::function<void(LaunchOutcome)>;
  static void launch(cluster::Process& self,
                     std::vector<LaunchTarget> targets, Callback cb);

 private:
  struct State;
  static void next(cluster::Process& self, std::shared_ptr<State> st);
};

/// Tree-based ad hoc launch: the front end rsh-starts up to `fanout` agents,
/// each agent starts the local daemon and recursively rsh-starts agents for
/// its subtree, reporting aggregated (host, pid) lists upward.
class TreeRshLauncher {
 public:
  using Callback = std::function<void(LaunchOutcome)>;

  /// `self` must be able to listen on kTreeReportPort, and its Program must
  /// forward unrecognized messages to handle_report() (agents connect back
  /// to the front end and deliver one TreeAck each). All daemons get the
  /// same executable/args; a shared entry among `daemon_args` reaches every
  /// daemon as a view of one buffer.
  static void launch(cluster::Process& self, std::vector<std::string> hosts,
                     std::string daemon_exe, const Argv& daemon_args,
                     int fanout, Callback cb);

  /// Returns true if the message was a TreeAck consumed by a launch in
  /// progress on `self`. `ch` is the channel the ack arrived on; it is
  /// retained so teardown can signal the agent by closing it.
  static bool handle_report(cluster::Process& self,
                            const cluster::ChannelPtr& ch,
                            const cluster::Message& msg);
};

/// The recursive launch agent; registered as program image "rsh_tree_agent".
class TreeAgent : public cluster::Program {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "rsh_tree_agent";
  }
  void on_start(cluster::Process& self) override;
  void on_message(cluster::Process& self, const cluster::ChannelPtr& ch,
                  cluster::Message msg) override;

 private:
  void maybe_report(cluster::Process& self);
  void shutdown_subtree(cluster::Process& self);
  /// A child agent's rsh session dropped before (or after) its ack; an
  /// unacked loss is a dead subtree and fails the launch upward.
  void on_child_session_lost(cluster::Process& self, const std::string& host);

  int awaiting_children_ = 0;
  bool local_done_ = false;
  bool reported_ = false;
  TreeAck ack_;
  std::set<std::string> acked_hosts_;
  std::string report_host_;
  cluster::Port report_port_ = 0;
  cluster::Pid daemon_pid_ = cluster::kInvalidPid;
  std::vector<cluster::ChannelPtr> child_sessions_;
  std::vector<cluster::ChannelPtr> child_acks_;
  obs::SpanId span_ = obs::kNoSpan;  ///< this agent's subtree launch span
};

/// Registers the tree-agent image with the machine's program registry.
void install_tree_agent(cluster::Machine& machine);

// --- comm::LaunchStrategy bindings -------------------------------------------
//
// The ad hoc launchers above wrapped as pluggable strategies: both assemble
// the daemon bootstrap argv through comm/bootstrap.hpp and keep the rsh
// sessions that hold the daemons alive, so teardown is "drop the sessions".

/// Sequential rsh with an explicit --lmon-rank per daemon.
class SerialRshStrategy final : public comm::LaunchStrategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "serial-rsh"; }
  [[nodiscard]] comm::LaunchStrategyKind kind() const override {
    return comm::LaunchStrategyKind::SerialRsh;
  }
  void launch(cluster::Process& self, comm::LaunchRequest req,
              Callback cb) override;
  void teardown(cluster::Process& self,
                std::function<void(Status)> cb) override;

 private:
  std::vector<cluster::ChannelPtr> sessions_;
};

/// Recursive tree rsh. Every daemon receives an identical command line
/// (the agent protocol cannot vary argv per host), so the bootstrap rank is
/// derived from the host list on the daemon side. The process driving the
/// launch must forward unrecognized messages to
/// TreeRshLauncher::handle_report().
class TreeRshStrategy final : public comm::LaunchStrategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "tree-rsh"; }
  [[nodiscard]] comm::LaunchStrategyKind kind() const override {
    return comm::LaunchStrategyKind::TreeRsh;
  }
  void launch(cluster::Process& self, comm::LaunchRequest req,
              Callback cb) override;
  void teardown(cluster::Process& self,
                std::function<void(Status)> cb) override;

 private:
  std::vector<cluster::ChannelPtr> sessions_;
  std::vector<cluster::ChannelPtr> ack_channels_;
};

}  // namespace lmon::rsh
