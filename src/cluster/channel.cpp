#include "cluster/channel.hpp"

#include <cassert>
#include <utility>

#include "cluster/machine.hpp"
#include "cluster/process.hpp"

namespace lmon::cluster {

Channel::Channel(Id id, Machine& machine, Pid a, NodeId a_node, Pid b,
                 NodeId b_node)
    : id_(id), machine_(machine) {
  a_.pid = a;
  a_.node = a_node;
  b_.pid = b;
  b_.node = b_node;
}

Pid Channel::peer_of(Pid self) const {
  return self == a_.pid ? b_.pid : a_.pid;
}

Channel::End& Channel::end_for(Pid pid) {
  assert(pid == a_.pid || pid == b_.pid);
  return pid == a_.pid ? a_ : b_;
}

Channel::End& Channel::other_end(Pid pid) {
  assert(pid == a_.pid || pid == b_.pid);
  return pid == a_.pid ? b_ : a_;
}

void Channel::send(Pid self, Message msg) {
  if (!open_) return;
  End& src = end_for(self);
  End& dst = other_end(self);

  sim::Simulator& simulator = machine_.sim();
  sim::Time arrival =
      simulator.now() +
      machine_.network().transfer_time(src.node, dst.node, msg.size());
  // Per-direction FIFO: a later send never overtakes an earlier one even if
  // its jittered latency came out smaller.
  if (arrival <= dst.last_arrival) arrival = dst.last_arrival + 1;
  dst.last_arrival = arrival;

  // Every message in the simulation crosses this choke point, so this is
  // where the link/channel traffic metrics live.
  if (machine_.metrics() != nullptr) {
    const double size = static_cast<double>(msg.size());
    machine_.count("net.messages_total");
    machine_.count("net.bytes_total", size);
    if (dst.link_bytes_metric.empty()) {
      dst.link_bytes_metric = "net.link." + std::to_string(src.node) + "->" +
                              std::to_string(dst.node) + ".bytes";
      dst.channel_messages_metric =
          "net.channel." + std::to_string(id_) + ".messages";
    }
    machine_.count(dst.link_bytes_metric, size);
    machine_.count(dst.channel_messages_metric);
    machine_.observe("net.message_bytes", size);
  }
  if (obs::Tracer* tracer = machine_.tracer(); tracer != nullptr) {
    tracer->instant("net.send", "net", static_cast<int>(src.node), src.pid,
                    obs::kNoSpan,
                    "to=" + std::to_string(dst.pid) + " bytes=" +
                        std::to_string(msg.size()));
  }

  auto self_ptr = shared_from_this();
  const Pid dst_pid = dst.pid;
  simulator.schedule_at(
      arrival, [self_ptr, dst_pid, m = std::move(msg)]() mutable {
        if (!self_ptr->open_) return;
        Process* peer = self_ptr->machine_.find_process(dst_pid);
        if (peer == nullptr || peer->state() == ProcState::Exited) return;
        peer->deliver([self_ptr, peer, m = std::move(m)]() mutable {
          peer->dispatch_message(self_ptr, std::move(m));
        });
      });
}

void Channel::close(Pid closer) {
  if (!open_) return;
  open_ = false;

  End& src = end_for(closer);
  End& dst = other_end(closer);
  auto self_ptr = shared_from_this();
  const Pid dst_pid = dst.pid;

  machine_.sim().schedule(
      machine_.network().transfer_time(src.node, dst.node, 0),
      [self_ptr, dst_pid] {
        Process* peer = self_ptr->machine_.find_process(dst_pid);
        if (peer == nullptr || peer->state() == ProcState::Exited) return;
        peer->forget_channel(self_ptr->id());
        peer->deliver(
            [self_ptr, peer] { peer->dispatch_closed(self_ptr); });
      });

  Process* me = machine_.find_process(closer);
  if (me != nullptr) me->forget_channel(id_);
}

}  // namespace lmon::cluster
