#include "cluster/machine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lmon::cluster {

Machine::Machine(sim::Simulator& simulator, MachineConfig config)
    : sim_(simulator),
      config_(std::move(config)),
      network_(config_.costs, simulator.rng().fork()),
      jitter_rng_(simulator.rng().fork()) {
  const int total = 1 + config_.num_compute_nodes + config_.num_middleware_nodes;
  nodes_.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    std::string host = i == 0 ? config_.host_prefix + "-fe"
                              : config_.host_prefix + std::to_string(i);
    nodes_.push_back(
        std::make_unique<Node>(*this, static_cast<NodeId>(i), host));
    host_index_.emplace(nodes_.back()->hostname(), nodes_.back().get());
  }
}

void Machine::set_tracer(obs::Tracer* t) {
  tracer_ = t;
  if (tracer_ == nullptr) return;
  for (const auto& node : nodes_) {
    tracer_->name_track(static_cast<int>(node->id()), node->hostname());
  }
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const Pid pid = kFirstPid + static_cast<Pid>(i);
    tracer_->name_lane(static_cast<int>(procs_[i]->node().id()), pid,
                       std::string(procs_[i]->program().name()) + "/" +
                           std::to_string(pid));
  }
}

void Machine::index_process(Pid pid, Process* p) {
  assert(p != nullptr && pid == kFirstPid + static_cast<Pid>(procs_.size()));
  procs_.push_back(p);
  if (tracer_ != nullptr) {
    tracer_->name_lane(static_cast<int>(p->node().id()), pid,
                       std::string(p->program().name()) + "/" +
                           std::to_string(pid));
  }
}

Node* Machine::find_host(std::string_view hostname) {
  auto it = host_index_.find(hostname);
  return it == host_index_.end() ? nullptr : it->second;
}

sim::Time Machine::jittered(sim::Time base) {
  const double j = config_.costs.proc_jitter;
  if (j <= 0.0) return base;
  const double factor = jitter_rng_.normal(1.0, j);
  return std::max<sim::Time>(
      1, static_cast<sim::Time>(static_cast<double>(base) * factor));
}

void Machine::open_connection(Process& from, const std::string& host,
                              Port port, ConnectCallback cb) {
  const Pid from_pid = from.pid();
  Node* target = find_host(host);
  if (target == nullptr) {
    sim_.schedule(config_.costs.net_latency, [this, from_pid, cb, host] {
      Process* fp = find_process(from_pid);
      if (fp == nullptr || fp->state() == ProcState::Exited) return;
      fp->deliver(
          [cb, host] { cb(Status(Rc::Esubcom, "no such host: " + host), nullptr); });
    });
    return;
  }

  const NodeId from_node = from.node().id();
  const NodeId target_node = target->id();
  const sim::Time t = network_.connect_time(from_node, target_node);

  sim_.schedule(t, [this, from_pid, from_node, target_node, port, cb] {
    Process* fp = find_process(from_pid);
    if (fp == nullptr || fp->state() == ProcState::Exited) return;

    Node& tn = node(target_node);
    const Node::Listener* listener = tn.listener(port);
    Process* lp =
        listener == nullptr ? nullptr : find_process(listener->pid);
    if (lp == nullptr || lp->state() == ProcState::Exited) {
      fp->deliver([cb] {
        cb(Status(Rc::Esubcom, "connection refused"), nullptr);
      });
      return;
    }

    auto ch = std::make_shared<Channel>(alloc_channel_id(), *this, from_pid,
                                        from_node, lp->pid(), target_node);
    fp->register_channel(ch);
    lp->register_channel(ch);
    auto accept = listener->on_accept;
    lp->deliver([lp, ch, accept] {
      if (accept) {
        accept(ch);
      } else {
        lp->program().on_connection(*lp, ch);
      }
    });
    fp->deliver([fp, cb, ch] {
      (void)fp;
      cb(Status::ok(), ch);
    });
  });
}

}  // namespace lmon::cluster
