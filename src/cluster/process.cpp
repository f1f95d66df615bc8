#include "cluster/process.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "cluster/machine.hpp"
#include "cluster/node.hpp"
#include "cluster/tracing.hpp"
#include "simkernel/log.hpp"

namespace lmon::cluster {

Process::Process(Machine& machine, Node& node, Pid pid, Pid parent,
                 std::unique_ptr<Program> program, SpawnOptions options)
    : machine_(machine),
      node_(node),
      pid_(pid),
      parent_(parent),
      program_(std::move(program)),
      options_(std::move(options)),
      child_limit_(machine.costs().rsh_fork_limit) {
  assert(program_ != nullptr && "a process needs a program");
}

Process::~Process() = default;

sim::Simulator& Process::sim() noexcept { return machine_.sim(); }

sim::Time Process::reserve_busy(sim::Time cost) {
  const sim::Time now = sim().now();
  if (busy_until_ < now) busy_until_ = now;
  busy_until_ += cost;
  return busy_until_ - now;
}

void Process::set_state(ProcState s) {
  if (tick_period_ != 0 && s != state_) {
    if (state_ == ProcState::Running && s == ProcState::Stopped &&
        tick_held_ == sim::kNever) {
      // Ticks due by now have run (or will on the next read); the pending
      // one comes due while Stopped and waits for the resume.
      tick_until_ = sim().now();
      tick_held_ = sim().park_timer(tick_timer_);
    } else if (state_ == ProcState::Stopped && s == ProcState::Running &&
               tick_held_ > sim().now()) {
      // Resumed before the held tick came due: it runs on time after all.
      sim().unpark_timer(tick_timer_);
      tick_until_ = sim::kNever;
      tick_held_ = sim::kNever;
    }
  }
  state_ = s;
}

void Process::start_ticks(sim::Time period) {
  assert(tick_period_ == 0 && state_ == ProcState::Running);
  tick_period_ = period;
  tick_timer_ = sim().start_timer(period);
  tick_next_ = sim().now() + period;
}

void Process::catch_up_ticks() {
  if (tick_period_ == 0) return;
  const sim::Time upto = std::min(sim().now(), tick_until_);
  while (tick_next_ <= upto) {
    tick_next_ += tick_period_;
    program_->on_tick(stats_);
  }
}

void Process::queue_held_tick() {
  if (tick_held_queued_ || tick_held_ > sim().now()) return;
  tick_held_queued_ = true;
  deferred_.emplace_back([this] { run_held_tick(); });
}

void Process::run_held_tick() {
  catch_up_ticks();  // the ticks that came due before the stop
  tick_held_ = sim::kNever;
  tick_held_queued_ = false;
  tick_until_ = sim::kNever;
  sim().reset_timer(tick_timer_);
  tick_next_ = sim().now() + tick_period_;
  program_->on_tick(stats_);
}

void Process::flush_deferred() {
  // Deliveries queued while stopped run in arrival order on resume. New work
  // may be appended while flushing (a delivery can stop the process again);
  // the cursor picks it up, and exit() empties the queue.
  queue_held_tick();
  while (deferred_head_ < deferred_.size() && state_ == ProcState::Running) {
    sim::Task fn = std::move(deferred_[deferred_head_++]);
    fn();
  }
  if (deferred_head_ == deferred_.size()) {
    deferred_.clear();
    deferred_head_ = 0;
  }
}

Status Process::listen(Port port, AcceptHandler on_accept) {
  Status st = node_.register_listener(port, pid_, std::move(on_accept));
  if (st.is_ok()) listening_.push_back(port);
  return st;
}

void Process::stop_listening(Port port) {
  node_.unregister_listener(port, pid_);
  std::erase(listening_, port);
}

void Process::connect(const std::string& host, Port port, ConnectCallback cb) {
  machine_.open_connection(*this, host, port, std::move(cb));
}

void Process::send(const ChannelPtr& channel, Message msg) {
  assert(channel != nullptr);
  channel->send(pid_, std::move(msg));
}

void Process::close_channel(const ChannelPtr& channel) {
  assert(channel != nullptr);
  handlers_.erase(channel->id());
  channel->close(pid_);
}

void Process::set_channel_handler(const ChannelPtr& channel,
                                  MessageHandler on_msg,
                                  ClosedHandler on_closed) {
  assert(channel != nullptr);
  handlers_[channel->id()] = {std::move(on_msg), std::move(on_closed)};
}

void Process::clear_channel_handler(Channel::Id id) { handlers_.erase(id); }

void Process::dispatch_message(const ChannelPtr& channel, Message msg) {
  auto it = handlers_.find(channel->id());
  if (it != handlers_.end() && it->second.first) {
    // Copy the handler: it may deregister itself while running.
    auto handler = it->second.first;
    handler(channel, std::move(msg));
    return;
  }
  program_->on_message(*this, channel, std::move(msg));
}

void Process::dispatch_closed(const ChannelPtr& channel) {
  auto it = handlers_.find(channel->id());
  if (it != handlers_.end()) {
    auto handler = it->second.second;
    handlers_.erase(it);
    if (handler) {
      handler(channel);
      return;
    }
    return;  // handled channel with no closed-callback: swallow
  }
  program_->on_channel_closed(*this, channel);
}

Result<Pid> Process::spawn_child(std::unique_ptr<Program> program,
                                 SpawnOptions opts) {
  if (live_children() >= child_limit_) {
    return {Status(Rc::Esys, "fork: resource temporarily unavailable"),
            kInvalidPid};
  }
  return node_.spawn_internal(std::move(program), std::move(opts), pid_);
}

int Process::live_children() const {
  int live = 0;
  for (Pid c : children_) {
    const Process* p = node_.find(c);
    if (p != nullptr && p->state() != ProcState::Exited) ++live;
  }
  return live;
}

void Process::reap_pdeath_children() {
  // Snapshot: a child's exit may recursively reap and must not invalidate
  // this iteration.
  const std::vector<Pid> kids = children_;
  for (Pid child : kids) {
    Process* cp = machine_.find_process(child);
    if (cp != nullptr && cp->state() != ProcState::Exited &&
        cp->options().die_with_parent) {
      cp->exit(9);
    }
  }
}

void Process::exit(int code) {
  if (state_ == ProcState::Exited) return;
  sim::LogLine(sim::LogLevel::Debug, sim().now(), program_->name())
      << "pid " << pid_ << " exit(" << code << ")";
  state_ = ProcState::Exited;
  stats_.state = 'Z';
  if (tick_period_ != 0) {
    // The pending tick still comes due, and does nothing.
    tick_until_ = std::min(tick_until_, sim().now());
    sim().drop_timer(tick_timer_);
  }
  deferred_.clear();
  deferred_head_ = 0;
  pending_resume_ = nullptr;
  handlers_.clear();

  for (Port port : std::vector<Port>(listening_)) {
    node_.unregister_listener(port, pid_);
  }
  listening_.clear();

  // Close all channels (notifies peers).
  std::vector<ChannelPtr> open_channels;
  open_channels.reserve(channels_.size());
  for (auto& [id, ch] : channels_) open_channels.push_back(ch);
  channels_.clear();
  for (auto& ch : open_channels) ch->close(pid_);

  reap_pdeath_children();

  // Our own trace sessions detach, resuming any stopped targets.
  for (auto& session : trace_sessions_) session->detach();

  // Notify the tracer tracing us.
  if (tracer_ != nullptr) {
    TraceSession* session = tracer_;
    tracer_ = nullptr;
    session->attached_ = false;
    session->emit(DebugEvent{DebugEventType::Exited, pid_, "", code});
  }

  // SIGCHLD to the parent.
  if (parent_ != kInvalidPid) {
    Process* pp = machine_.find_process(parent_);
    if (pp != nullptr && pp->state() != ProcState::Exited) {
      const Pid child = pid_;
      pp->post(machine_.costs().sched_latency,
               [pp, child, code] { pp->program().on_child_exit(*pp, child, code); });
    }
  }
}

void Process::breakpoint(const std::string& symbol,
                         std::function<void()> resume) {
  if (!traced()) {
    post(0, std::move(resume));
    return;
  }
  sim::LogLine(sim::LogLevel::Debug, sim().now(), program_->name())
      << "pid " << pid_ << " stopped at " << symbol;
  set_state(ProcState::Stopped);
  stats_.state = 'T';
  pending_resume_ = std::move(resume);
  tracer_->emit(DebugEvent{DebugEventType::Stopped, pid_, symbol, 0});
}

Result<TraceSession*> Process::trace_attach(Pid target,
                                            DebugEventHandler handler) {
  Process* t = machine_.find_process(target);
  if (t == nullptr || t->state() == ProcState::Exited) {
    return {Status(Rc::Edead, "trace_attach: no such process"), nullptr};
  }
  if (t->traced()) {
    return {Status(Rc::Ebusy, "trace_attach: already traced"), nullptr};
  }
  auto session = std::make_unique<TraceSession>(machine_, pid_, target,
                                                std::move(handler));
  TraceSession* sp = session.get();
  trace_sessions_.push_back(std::move(session));
  t->attach_tracer(sp);

  Machine& m = machine_;
  m.sim().schedule(m.costs().trace_attach_cost, [&m, sp, target] {
    Process* tt = m.find_process(target);
    if (tt == nullptr || tt->state() == ProcState::Exited) return;
    tt->set_state(ProcState::Stopped);
    tt->stats_.state = 'T';
    sp->emit(DebugEvent{DebugEventType::Attached, target, "", 0});
  });
  return {Status::ok(), sp};
}

Result<std::pair<Pid, TraceSession*>> Process::spawn_traced(
    std::unique_ptr<Program> program, SpawnOptions opts,
    DebugEventHandler handler) {
  opts.start_traced = true;
  Result<Pid> spawned = spawn_child(std::move(program), std::move(opts));
  if (!spawned.is_ok()) return {spawned.status, {kInvalidPid, nullptr}};

  auto session = std::make_unique<TraceSession>(machine_, pid_, spawned.value,
                                                std::move(handler));
  TraceSession* sp = session.get();
  trace_sessions_.push_back(std::move(session));
  Process* child = machine_.find_process(spawned.value);
  assert(child != nullptr);
  child->attach_tracer(sp);
  return {Status::ok(), {spawned.value, sp}};
}

void Process::attach_tracer(TraceSession* session) { tracer_ = session; }

void Process::detach_tracer() {
  tracer_ = nullptr;
  if (state_ == ProcState::Stopped) {
    set_state(ProcState::Running);
    stats_.state = 'R';
    std::function<void()> resume = std::move(pending_resume_);
    pending_resume_ = nullptr;
    flush_deferred();
    if (resume) post(0, std::move(resume));
  }
}

void Process::register_channel(const ChannelPtr& ch) {
  channels_[ch->id()] = ch;
}

void Process::forget_channel(Channel::Id id) { channels_.erase(id); }

}  // namespace lmon::cluster
