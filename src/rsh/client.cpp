#include "rsh/client.hpp"

#include <memory>
#include <utility>

#include "cluster/machine.hpp"

namespace lmon::rsh {

void RshSession::run(cluster::Process& self, const std::string& host,
                     const std::string& executable,
                     Argv args, Callback cb) {
  // fork()+exec of the local rsh helper. This is the step that hits the
  // per-user process limit at scale.
  cluster::SpawnOptions helper_opts;
  helper_opts.executable = "rsh";
  helper_opts.image_mb = 1.0;
  auto helper = self.spawn_child(std::make_unique<RshHelper>(),
                                 std::move(helper_opts));
  if (!helper.is_ok()) {
    self.post(self.machine().costs().rsh_client_fork,
              [cb, st = helper.status] {
                cb(RemoteExec{st, cluster::kInvalidPid, cluster::kInvalidPid,
                              nullptr});
              });
    return;
  }
  const cluster::Pid helper_pid = helper.value;

  // Session establishment: connection + authentication + remote shell
  // startup. The rsh invocation blocks its caller, so concurrent launches
  // from one process serialize (reserve_busy); this per-target constant
  // dominates serial ad hoc launching and bounds rsh-tree speedups.
  const sim::Time session_cost = self.reserve_busy(
      self.machine().costs().rsh_client_fork +
      self.machine().costs().rsh_session_cost);
  self.post(session_cost, [&self, host, executable,
                           args = std::move(args), cb, helper_pid]() mutable {
    self.connect(
        host, cluster::kRshDaemonPort,
        [&self, executable, args = std::move(args), cb, helper_pid](
            Status st, cluster::ChannelPtr ch) mutable {
          if (!st.is_ok()) {
            reap_helper(self, helper_pid);
            cb(RemoteExec{st, cluster::kInvalidPid, helper_pid, nullptr});
            return;
          }
          ExecReq req;
          req.executable = executable;
          req.args = std::move(args);

          self.set_channel_handler(
              ch,
              [&self, cb, helper_pid](const cluster::ChannelPtr& chan,
                                      cluster::Message msg) {
                auto resp = ExecResp::decode(msg);
                self.clear_channel_handler(chan->id());
                if (!resp || !resp->ok) {
                  const std::string why =
                      resp ? resp->error : "rshd protocol error";
                  reap_helper(self, helper_pid);
                  self.close_channel(const_cast<cluster::ChannelPtr&>(chan));
                  cb(RemoteExec{Status(Rc::Esubcom, why), cluster::kInvalidPid,
                                helper_pid, nullptr});
                  return;
                }
                cb(RemoteExec{Status::ok(), resp->pid, helper_pid, chan});
              },
              [&self, cb, helper_pid](const cluster::ChannelPtr&) {
                reap_helper(self, helper_pid);
                cb(RemoteExec{Status(Rc::Esubcom, "rsh session lost"),
                              cluster::kInvalidPid, helper_pid, nullptr});
              });
          self.send(ch, req.encode());
        });
  });
}

void RshSession::reap_helper(cluster::Process& self, cluster::Pid helper) {
  cluster::Process* h = self.machine().find_process(helper);
  if (h != nullptr && h->state() != cluster::ProcState::Exited) h->exit(1);
}

}  // namespace lmon::rsh
