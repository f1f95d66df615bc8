#include "rsh/rshd.hpp"

#include <memory>

#include "cluster/machine.hpp"

namespace lmon::rsh {

void Rshd::on_start(cluster::Process& self) {
  (void)self.listen(cluster::kRshDaemonPort);
}

void Rshd::on_message(cluster::Process& self, const cluster::ChannelPtr& ch,
                      cluster::Message msg) {
  auto req = ExecReq::decode(msg);
  if (!req) return;

  const cluster::ProgramImage* image =
      self.machine().find_program(req->executable);
  if (image == nullptr) {
    ExecResp resp;
    resp.ok = false;
    resp.error = "rshd: command not found: " + req->executable;
    self.send(ch, resp.encode());
    return;
  }

  // Authentication + shell setup + fork of the command.
  self.post(self.machine().costs().rshd_spawn_cost,
            [this, &self, ch, req = std::move(*req), image] {
              cluster::SpawnOptions opts;
              opts.executable = req.executable;
              opts.image_mb = image->image_mb;
              opts.args = req.args;
              auto prog = image->factory({});
              auto res = self.spawn_child(std::move(prog), std::move(opts));
              ExecResp resp;
              if (!res.is_ok()) {
                resp.ok = false;
                resp.error = res.status.message();
              } else {
                resp.ok = true;
                resp.pid = res.value;
                sessions_[ch->id()] = Session{res.value, ch};
              }
              self.send(ch, resp.encode());
            });
}

void Rshd::on_channel_closed(cluster::Process& self,
                             const cluster::ChannelPtr& ch) {
  auto it = sessions_.find(ch->id());
  if (it == sessions_.end()) return;
  cluster::Process* child = self.machine().find_process(it->second.pid);
  sessions_.erase(it);
  if (child != nullptr && child->state() != cluster::ProcState::Exited) {
    child->exit(9);  // SIGHUP on session loss
  }
}

void Rshd::on_child_exit(cluster::Process& self, cluster::Pid child,
                         int exit_code) {
  (void)exit_code;
  // The remote command finished (or was killed): hang up its session so
  // the client side sees the EOF, exactly like a real rsh invocation
  // returning when the remote process exits.
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->second.pid != child) continue;
    cluster::ChannelPtr ch = it->second.channel;
    sessions_.erase(it);
    if (ch != nullptr && ch->is_open()) self.close_channel(ch);
    break;
  }
}

Status install(cluster::Machine& machine) {
  for (int i = 0; i < machine.num_nodes(); ++i) {
    cluster::SpawnOptions opts;
    opts.executable = "rshd";
    opts.image_mb = 1.0;
    auto r = machine.node(i).spawn(std::make_unique<Rshd>(), std::move(opts));
    if (!r.is_ok()) return r.status;
  }
  return Status::ok();
}

}  // namespace lmon::rsh
