#include "rm/node_daemon.hpp"

#include <algorithm>
#include <cassert>

#include "cluster/machine.hpp"
#include "comm/bootstrap.hpp"
#include "common/argparse.hpp"
#include "simkernel/log.hpp"

namespace lmon::rm {

void NodeDaemon::on_start(cluster::Process& self) {
  (void)self.listen(cluster::kRmNodeDaemonPort);
}

std::string NodeDaemon::spawn_group(JobId jobid, LaunchMode mode,
                                    const std::string& session) {
  return std::to_string(jobid) + "/" +
         (mode == LaunchMode::Tasks ? "t" : "d") + "/" + session;
}

void NodeDaemon::on_message(cluster::Process& self,
                            const cluster::ChannelPtr& ch,
                            cluster::Message msg) {
  auto type = peek_type(msg);
  if (!type) return;
  const sim::Time handle_cost = self.machine().costs().rm_slurmd_handle;

  switch (*type) {
    case MsgType::TreeLaunchReq: {
      auto req = TreeLaunchReq::decode(msg);
      if (!req) return;
      self.post(handle_cost, [this, &self, ch, req = std::move(*req)] {
        handle_launch(self, ch, req);
      });
      break;
    }
    case MsgType::TreeKillReq: {
      auto req = TreeKillReq::decode(msg);
      if (!req) return;
      self.post(handle_cost, [this, &self, ch, req = std::move(*req)] {
        handle_kill(self, ch, req);
      });
      break;
    }
    case MsgType::TreeLaunchAck: {
      auto ack = TreeLaunchAck::decode(msg);
      if (!ack) return;
      auto it = child_seq_to_key_.find(ack->seq);
      if (it == child_seq_to_key_.end()) return;
      const Key key = it->second;
      child_seq_to_key_.erase(it);
      channel_to_key_.erase(ch->id());
      self.close_channel(const_cast<cluster::ChannelPtr&>(ch));
      auto pit = pending_.find(key);
      if (pit == pending_.end()) return;
      Pending& p = pit->second;
      p.awaiting_children -= 1;
      if (!ack->ok) {
        p.failed = true;
        if (p.error.empty()) p.error = ack->error;
      }
      p.entries.insert(p.entries.end(), ack->entries.begin(),
                       ack->entries.end());
      maybe_complete(self, key);
      break;
    }
    case MsgType::TreeKillAck: {
      auto ack = TreeKillAck::decode(msg);
      if (!ack) return;
      auto it = child_seq_to_key_.find(ack->seq);
      if (it == child_seq_to_key_.end()) return;
      const Key key = it->second;
      child_seq_to_key_.erase(it);
      channel_to_key_.erase(ch->id());
      self.close_channel(const_cast<cluster::ChannelPtr&>(ch));
      auto pit = pending_.find(key);
      if (pit == pending_.end()) return;
      Pending& p = pit->second;
      p.awaiting_children -= 1;
      p.killed += ack->killed;
      if (!ack->ok) p.failed = true;
      maybe_complete(self, key);
      break;
    }
    default:
      break;
  }
}

void NodeDaemon::on_channel_closed(cluster::Process& self,
                                   const cluster::ChannelPtr& ch) {
  auto it = channel_to_key_.find(ch->id());
  if (it == channel_to_key_.end()) return;
  const Key key = it->second;
  channel_to_key_.erase(it);
  child_failed(self, key, "subtree node daemon connection lost");
}

Arg NodeDaemon::hosts_arg(const HostList& hosts) {
  // Every request of one launch, on every node, carries the one host buffer
  // the launcher packed, so the entry built for that view is remembered by
  // its SliceIdentity and every daemon of the launch shares it. The entry's
  // buffer is held weakly: the memo keeps no launch's list alive.
  thread_local struct {
    SliceIdentity view;
    std::weak_ptr<const Bytes> buffer;
  } last;
  if (last.view.matches(hosts.wire())) {
    if (auto buffer = last.buffer.lock()) return Arg(ByteSlice(buffer));
  }
  std::string csv;
  csv.reserve(hosts.wire().size());
  hosts.for_each([&csv](std::string_view host) { append_csv(csv, host); });
  Arg arg = comm::hosts_arg(csv);
  last = {SliceIdentity(hosts.wire()), arg.slice()->buffer()};
  return arg;
}

std::vector<std::span<const AllocatedNode>> NodeDaemon::split_subtrees(
    const std::vector<AllocatedNode>& nodes, std::uint32_t fanout) {
  std::vector<std::span<const AllocatedNode>> chunks;
  if (nodes.size() <= 1) return chunks;
  const auto splits = comm::split_contiguous(nodes.size() - 1, fanout);
  chunks.reserve(splits.size());
  for (const auto& [off, len] : splits) {
    chunks.push_back(std::span(nodes).subspan(1 + off, len));
  }
  return chunks;
}

void NodeDaemon::handle_launch(cluster::Process& self,
                               const cluster::ChannelPtr& ch,
                               const TreeLaunchReq& req) {
  const Key key = next_key_++;
  Pending& p = pending_[key];
  p.reply_seq = req.seq;
  p.reply_to = ch;

  const cluster::CostModel& costs = self.machine().costs();
  cluster::Machine& machine = self.machine();
  assert(!req.nodes.empty());
  const AllocatedNode& local = req.nodes.front();

  machine.count("rm.tree_launch.requests");
  if (obs::Tracer* tracer = machine.tracer(); tracer != nullptr) {
    // Parent chain: the upstream node daemon anchors "rmtree:" per forwarded
    // chunk; the tree root falls back to the engine's co-spawn span.
    obs::SpanId parent =
        tracer->anchor("rmtree:" + req.fabric.session + ":" + local.host);
    if (parent == obs::kNoSpan) {
      parent = tracer->anchor("cospawn:" + req.fabric.session);
    }
    p.span = tracer->begin_span(
        "rm.tree_launch", "rm", static_cast<int>(self.node().id()), self.pid(),
        parent,
        "host=" + local.host + " nodes=" + std::to_string(req.nodes.size()));
    if (req.mode == LaunchMode::Daemons) {
      // The tool daemon spawned here parents its bootstrap span on this.
      tracer->set_anchor("spawn:" + req.fabric.session + ":" + local.host,
                         p.span);
    }
  }

  const cluster::ProgramImage* image = machine.find_program(req.executable);
  if (image == nullptr) {
    p.failed = true;
    p.error = "no such executable: " + req.executable;
    maybe_complete(self, key);
    return;
  }

  const int nlocal =
      req.mode == LaunchMode::Tasks ? static_cast<int>(req.tasks_per_node) : 1;
  p.awaiting_local = nlocal;
  const std::string group = spawn_group(req.jobid, req.mode, req.fabric.session);

  // A daemon's bootstrap, holding the launch's one host entry.
  comm::BootstrapSpec boot;
  Arg hosts;
  if (req.mode == LaunchMode::Daemons) {
    boot.size = req.fabric.total;
    boot.topology = req.fabric.topology();
    boot.port = req.fabric.port;
    boot.session = req.fabric.session;
    boot.fe_host = req.fabric.fe_host;
    boot.fe_port = req.fabric.fe_port;
    boot.rndv_threshold = req.fabric.rndv_threshold;
    boot.heal = req.fabric.heal;
    boot.heal_grace_ms = req.fabric.heal_grace_ms;
    boot.max_sessions = req.fabric.max_sessions;
    hosts = hosts_arg(req.hosts);
  }

  for (int i = 0; i < nlocal; ++i) {
    const std::int32_t rank =
        req.mode == LaunchMode::Tasks
            ? static_cast<std::int32_t>(local.index * req.tasks_per_node) + i
            : static_cast<std::int32_t>(local.index);

    cluster::SpawnOptions opts;
    opts.executable = req.executable;
    opts.image_mb = image->image_mb;
    if (req.mode == LaunchMode::Daemons) {
      opts.args = comm::bootstrap_args(
          boot, static_cast<std::uint32_t>(rank), hosts, req.extra_args);
    } else {
      opts.args.reserve(2 + req.extra_args.size());
      opts.args.push_back("--rank=" + std::to_string(rank));
      const std::uint64_t size =
          std::uint64_t{req.hosts.size()} * req.tasks_per_node;
      opts.args.push_back("--size=" + std::to_string(size));
      opts.args.insert(opts.args.end(), req.extra_args.begin(),
                       req.extra_args.end());
    }
    opts.started_callback = [this, &self, key](cluster::Pid) {
      auto it = pending_.find(key);
      if (it == pending_.end()) return;
      it->second.awaiting_local -= 1;
      maybe_complete(self, key);
    };

    // Per-task setup (credentials, cgroups, I/O plumbing) serializes in the
    // node daemon; the fork/exec itself then overlaps.
    const std::string exe = req.executable;
    const std::string host = local.host;
    auto factory = image->factory;
    self.post(static_cast<sim::Time>(i) * costs.rm_task_setup,
              [this, &self, key, exe, host, rank, group, factory,
               opts = std::move(opts)]() mutable {
                auto prog = factory({});
                auto res = self.spawn_child(std::move(prog), std::move(opts));
                auto it = pending_.find(key);
                if (it == pending_.end()) return;
                if (!res.is_ok()) {
                  it->second.failed = true;
                  it->second.error = res.status.message();
                  it->second.awaiting_local -= 1;
                  maybe_complete(self, key);
                  return;
                }
                spawned_[group].push_back(res.value);
                it->second.entries.push_back(
                    TaskDesc{host, exe, res.value, rank});
              });
  }

  forward_subtrees(self, key, req);
  arm_timeout(self, key);
  // In case there is nothing to do at all (defensive; nlocal >= 1 always).
  maybe_complete(self, key);
}

void NodeDaemon::forward_subtrees(cluster::Process& self, Key key,
                                  const TreeLaunchReq& req) {
  auto chunks = split_subtrees(req.nodes, req.fabric.fanout != 0
                                              ? req.fabric.fanout
                                              : static_cast<std::uint32_t>(
                                                    self.machine()
                                                        .costs()
                                                        .rm_launch_fanout));
  auto it = pending_.find(key);
  assert(it != pending_.end());
  it->second.awaiting_children = static_cast<int>(chunks.size());

  for (const auto chunk : chunks) {
    const std::uint32_t seq = next_seq_++;
    child_seq_to_key_[seq] = key;
    const std::string& target = chunk.front().host;
    self.machine().count("rm.subtrees_forwarded");
    if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
      tracer->set_anchor("rmtree:" + req.fabric.session + ":" + target,
                         it->second.span);
    }
    self.connect(target, cluster::kRmNodeDaemonPort,
                 [this, &self, key, seq,
                  frame = req.encode_subtree(chunk, seq)](
                     Status st, cluster::ChannelPtr child_ch) mutable {
                   if (!st.is_ok() || child_ch == nullptr) {
                     child_seq_to_key_.erase(seq);
                     child_failed(self, key,
                                  "connect to subtree failed: " + st.message());
                     return;
                   }
                   channel_to_key_[child_ch->id()] = key;
                   self.send(child_ch, std::move(frame));
                 });
  }
}

void NodeDaemon::handle_kill(cluster::Process& self,
                             const cluster::ChannelPtr& ch,
                             const TreeKillReq& req) {
  const Key key = next_key_++;
  Pending& p = pending_[key];
  p.reply_seq = req.seq;
  p.reply_to = ch;
  p.is_kill = true;

  const std::string group = spawn_group(req.jobid, req.mode, req.session);
  auto sit = spawned_.find(group);
  if (sit != spawned_.end()) {
    for (cluster::Pid pid : sit->second) {
      cluster::Process* child = self.machine().find_process(pid);
      if (child != nullptr && child->state() != cluster::ProcState::Exited) {
        child->exit(9);
        p.killed += 1;
      }
    }
    spawned_.erase(sit);
  }
  forward_kill_subtrees(self, key, req);
  arm_timeout(self, key);
  maybe_complete(self, key);
}

void NodeDaemon::forward_kill_subtrees(cluster::Process& self, Key key,
                                       const TreeKillReq& req) {
  auto chunks = split_subtrees(
      req.nodes,
      static_cast<std::uint32_t>(self.machine().costs().rm_launch_fanout));
  auto it = pending_.find(key);
  assert(it != pending_.end());
  it->second.awaiting_children = static_cast<int>(chunks.size());

  for (const auto chunk : chunks) {
    const std::uint32_t seq = next_seq_++;
    child_seq_to_key_[seq] = key;
    self.connect(chunk.front().host, cluster::kRmNodeDaemonPort,
                 [this, &self, key, seq,
                  frame = req.encode_subtree(chunk, seq)](
                     Status st, cluster::ChannelPtr child_ch) mutable {
                   if (!st.is_ok() || child_ch == nullptr) {
                     child_seq_to_key_.erase(seq);
                     child_failed(self, key, "kill forward failed");
                     return;
                   }
                   channel_to_key_[child_ch->id()] = key;
                   self.send(child_ch, std::move(frame));
                 });
  }
}

void NodeDaemon::child_failed(cluster::Process& self, Key key,
                              const std::string& why) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  p.failed = true;
  if (p.error.empty()) p.error = why;
  p.awaiting_children -= 1;
  self.machine().count("rm.subtree_failures");
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    tracer->instant("slurmd.subtree_child_failed", "slurmd",
                    static_cast<int>(self.node().id()), self.pid(),
                    obs::kNoSpan, "subtree child failed: " + why);
  }
  maybe_complete(self, key);
}

void NodeDaemon::arm_timeout(cluster::Process& self, Key key) {
  self.post(kSubtreeTimeout, [this, &self, key] {
    auto it = pending_.find(key);
    if (it == pending_.end() || it->second.done) return;
    it->second.failed = true;
    self.machine().count("rm.subtree_timeouts");
    if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
      tracer->instant("slurmd.subtree_timeout", "slurmd",
                      static_cast<int>(self.node().id()), self.pid(),
                      obs::kNoSpan, "subtree launch timeout");
    }
    if (it->second.error.empty()) it->second.error = "subtree launch timeout";
    it->second.awaiting_local = 0;
    it->second.awaiting_children = 0;
    maybe_complete(self, key);
  });
}

void NodeDaemon::maybe_complete(cluster::Process& self, Key key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.done || p.awaiting_local > 0 || p.awaiting_children > 0) return;
  p.done = true;

  if (obs::Tracer* tracer = self.machine().tracer();
      tracer != nullptr && p.span != obs::kNoSpan) {
    tracer->end_span(p.span, p.failed ? "failed: " + p.error : "ok");
  }

  if (p.is_kill) {
    TreeKillAck ack;
    ack.seq = p.reply_seq;
    ack.ok = !p.failed;
    ack.killed = p.killed;
    if (p.reply_to != nullptr && p.reply_to->is_open()) {
      self.send(p.reply_to, ack.encode());
    }
  } else {
    TreeLaunchAck ack;
    ack.seq = p.reply_seq;
    ack.ok = !p.failed;
    ack.error = p.error;
    ack.entries = std::move(p.entries);
    if (p.reply_to != nullptr && p.reply_to->is_open()) {
      self.send(p.reply_to, ack.encode());
    }
  }
  pending_.erase(it);
}

}  // namespace lmon::rm
