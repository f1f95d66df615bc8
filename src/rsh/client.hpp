// client.hpp - client side of an rsh remote execution.
//
// RshSession::run models `fork(); exec("rsh", host, cmd...)` from a tool
// front end: it forks a local helper child (paying the fork cost and
// consuming a slot against the per-user process limit - the resource whose
// exhaustion makes the ad hoc approach "consistently fail" at 512 nodes in
// the paper), pays the connection/authentication cost, and asks the remote
// rshd to spawn the command. The session channel stays open for the life of
// the remote process; closing it (or the helper dying) kills the remote
// command.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cluster/process.hpp"
#include "rsh/protocol.hpp"

namespace lmon::rsh {

/// Inert stand-in for the rsh client binary: exists only to occupy a process
/// slot and keep the session alive, like the real blocking `rsh` child.
class RshHelper : public cluster::Program {
 public:
  [[nodiscard]] std::string_view name() const override { return "rsh"; }
  void on_start(cluster::Process& self) override { (void)self; }
};

struct RemoteExec {
  Status status;
  cluster::Pid remote_pid = cluster::kInvalidPid;
  cluster::Pid helper_pid = cluster::kInvalidPid;
  cluster::ChannelPtr session;  ///< close it to terminate the remote command
};

class RshSession {
 public:
  using Callback = std::function<void(RemoteExec)>;

  /// Runs `executable args...` on `host` on behalf of `self`. The callback
  /// fires in `self`'s context. Failure modes: Rc::Esys when the local fork
  /// fails (process limit), Rc::Esubcom when the host/rshd is unreachable or
  /// the remote spawn fails.
  ///
  /// Message routing on the session channel is claimed by this call until
  /// the ExecResp arrives, then released to the caller (who may register a
  /// handler to talk to the remote process).
  static void run(cluster::Process& self, const std::string& host,
                  const std::string& executable,
                  Argv args, Callback cb);

 private:
  static void reap_helper(cluster::Process& self, cluster::Pid helper);
};

}  // namespace lmon::rsh
