// process.hpp - simulated processes and the Program model.
//
// A Process is the unit of execution on a Node. Its behaviour is supplied by
// a Program: a passive object whose virtual handlers are invoked by the
// simulator (start, message arrival, connection, child exit). All protocol
// logic in this repository - the RM, rshd, the LaunchMON engine, tool
// daemons - is written as Programs, so it is *real* event-driven protocol
// code; only the clock underneath is simulated.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/channel.hpp"
#include "cluster/types.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "simkernel/simulator.hpp"

namespace lmon::cluster {

class Machine;
class Node;
class Process;
class TraceSession;
struct DebugEvent;

/// Status + value pair for fallible operations that must not throw.
template <typename T>
struct Result {
  Status status;
  T value{};
  [[nodiscard]] bool is_ok() const { return status.is_ok(); }
};

/// Named global variables in a process image (MPIR_proctable & friends).
/// Tracers read them through TraceSession with a size-proportional cost.
class SymbolSpace {
 public:
  void write(const std::string& name, Bytes data) {
    syms_[name] = std::move(data);
  }
  [[nodiscard]] const Bytes* find(const std::string& name) const {
    auto it = syms_.find(name);
    return it == syms_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return syms_.count(name) != 0;
  }

 private:
  std::map<std::string, Bytes> syms_;
};

/// Behaviour of a simulated process. Handlers run to completion atomically
/// (the simulator is single-threaded); long-running work is expressed by
/// posting continuations with Process::post.
class Program {
 public:
  virtual ~Program() = default;

  /// Short name for logs ("srun", "jobsnap_be", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Invoked once the process finishes exec (after fork/exec cost).
  virtual void on_start(Process& self) = 0;

  /// A peer completed connect() to a port this process listens on.
  virtual void on_connection(Process& self, ChannelPtr channel) {
    (void)self;
    (void)channel;
  }

  /// A message arrived on a channel this process owns an end of.
  virtual void on_message(Process& self, const ChannelPtr& channel,
                          Message msg) {
    (void)self;
    (void)channel;
    (void)msg;
  }

  /// The peer closed the channel (or exited).
  virtual void on_channel_closed(Process& self, const ChannelPtr& channel) {
    (void)self;
    (void)channel;
  }

  /// A direct child exited.
  virtual void on_child_exit(Process& self, Pid child, int exit_code) {
    (void)self;
    (void)child;
    (void)exit_code;
  }

  /// One period of Process::start_ticks() has passed. A tick runs when the
  /// state it advances is read rather than at its due time, so it may touch
  /// only this program's own state and `stats`, and schedules nothing.
  virtual void on_tick(ProcStats& stats) { (void)stats; }
};

/// Parameters for spawning a process.
struct SpawnOptions {
  std::string executable = "a.out";       ///< image name (RPDTAB field)
  std::vector<std::string> args;          ///< argv-style parameters
  double image_mb = 4.0;                  ///< drives exec + DPCL-parse costs
  bool start_traced = false;              ///< spawn under the caller's trace
  /// PR_SET_PDEATHSIG-style: the child is killed (exit 9) when its parent
  /// exits. Launch agents use this so ad hoc-launched daemons cannot outlive
  /// the session that started them, even on a hard kill.
  bool die_with_parent = false;
  /// Invoked in the *parent's* context once the child has finished exec and
  /// its on_start ran (i.e. once the fork/exec cost has been paid). This is
  /// how launch substrates account spawn completion without polling.
  std::function<void(Pid)> started_callback;
};

using ConnectCallback = std::function<void(Status, ChannelPtr)>;
using DebugEventHandler = std::function<void(const DebugEvent&)>;

class Process {
 public:
  Process(Machine& machine, Node& node, Pid pid, Pid parent,
          std::unique_ptr<Program> program, SpawnOptions options);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] Pid pid() const noexcept { return pid_; }
  [[nodiscard]] Pid parent() const noexcept { return parent_; }
  [[nodiscard]] Node& node() noexcept { return node_; }
  [[nodiscard]] Machine& machine() noexcept { return machine_; }
  [[nodiscard]] sim::Simulator& sim() noexcept;
  [[nodiscard]] ProcState state() const noexcept { return state_; }
  [[nodiscard]] const SpawnOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const std::vector<std::string>& args() const noexcept {
    return options_.args;
  }
  [[nodiscard]] Program& program() noexcept { return *program_; }
  /// The /proc view, with every tick due by now() applied first.
  [[nodiscard]] ProcStats& stats() {
    catch_up_ticks();
    return stats_;
  }
  [[nodiscard]] SymbolSpace& symbols() noexcept { return symbols_; }
  [[nodiscard]] const SymbolSpace& symbols() const noexcept {
    return symbols_;
  }

  // --- time ---------------------------------------------------------------
  /// Schedules `fn` after `delay`. If the process is stopped by a tracer at
  /// fire time the continuation is deferred until resume; if it has exited
  /// the continuation is dropped. This gives tracer stop/continue faithful
  /// "the whole process freezes" semantics. Processes live as long as
  /// their Machine, so the event holds `this` rather than a pid to look up.
  template <typename F>
  void post(sim::Time delay, F&& fn) {
    if (state_ == ProcState::Exited) return;
    sim().schedule(delay, delivery(std::forward<F>(fn)));
  }

  /// Starts periodic ticks: Program::on_tick once every `period` from
  /// now(), with the delivery rules of a post() that re-posts itself from
  /// every tick. A tick that comes due while the process is Stopped runs on
  /// resume, in arrival order among the held deliveries, and the next one
  /// is due a period after the resume; ticks end at exit.
  ///
  /// The ticks are state, not events: a lazy simulator timer
  /// (sim::Simulator::start_timer) keeps the clock where the tick events
  /// would have left it, and each tick runs only when something reads what
  /// it advances, through catch_up_ticks(). stats() does that. A tick due at
  /// the very time of a read runs before the read, as a tick event does
  /// before any event scheduled less than a period ahead of it.
  void start_ticks(sim::Time period);
  /// Runs every tick that is due by now() and has not run yet.
  void catch_up_ticks();

  /// Reserves `cost` of serialized CPU time on this process and returns the
  /// delay until that work completes. Consecutive reservations queue behind
  /// each other - used to model blocking operations (e.g. synchronous rsh
  /// invocations) that cannot overlap within one process.
  sim::Time reserve_busy(sim::Time cost);

  // --- networking -----------------------------------------------------------
  /// Starts accepting connections on `port`. When `on_accept` is given, new
  /// channels on this port are delivered to it instead of the Program's
  /// on_connection (socket-style accept callback; protocol libraries use
  /// this to own their listening ports).
  using AcceptHandler = std::function<void(ChannelPtr)>;
  Status listen(Port port, AcceptHandler on_accept = nullptr);
  void stop_listening(Port port);

  /// Asynchronously connects to host:port. The callback receives the new
  /// channel, or a failure Status if nothing listens there.
  void connect(const std::string& host, Port port, ConnectCallback cb);

  /// Sends on a channel owned by this process.
  void send(const ChannelPtr& channel, Message msg);
  void close_channel(const ChannelPtr& channel);

  // --- channel routing ------------------------------------------------------
  /// Registers a per-channel handler pair; while registered, traffic on that
  /// channel bypasses the Program's on_message/on_channel_closed. Protocol
  /// libraries (LaunchMON FE runtime, ICCL, rsh sessions) use this so that a
  /// single process can multiplex several protocols, exactly like callback
  /// registration in an event-loop library.
  using MessageHandler = std::function<void(const ChannelPtr&, Message)>;
  using ClosedHandler = std::function<void(const ChannelPtr&)>;
  void set_channel_handler(const ChannelPtr& channel, MessageHandler on_msg,
                           ClosedHandler on_closed = nullptr);
  void clear_channel_handler(Channel::Id id);

  /// Routes to the per-channel handler if present, else the Program.
  void dispatch_message(const ChannelPtr& channel, Message msg);
  void dispatch_closed(const ChannelPtr& channel);

  // --- process management ------------------------------------------------------
  /// Forks/execs a child on this node. Fails with Rc::Esys once this process
  /// already has `child_limit()` live children (per-user nproc limit - this
  /// is what kills the rsh-based ad hoc launcher at scale).
  Result<Pid> spawn_child(std::unique_ptr<Program> program, SpawnOptions opts);

  [[nodiscard]] int live_children() const;
  [[nodiscard]] int child_limit() const noexcept { return child_limit_; }
  void set_child_limit(int limit) noexcept { child_limit_ = limit; }

  /// Terminates this process; channels close, the parent gets on_child_exit,
  /// the tracer (if any) gets an Exited debug event.
  void exit(int code);

  // --- tracee side -----------------------------------------------------------------
  [[nodiscard]] bool traced() const noexcept { return tracer_ != nullptr; }

  /// Declares a debugger breakpoint. When traced, the process stops, the
  /// tracer receives a Stopped event, and `resume` runs only after the
  /// tracer calls continue_target(). Untraced processes continue immediately.
  void breakpoint(const std::string& symbol, std::function<void()> resume);

  // --- tracer side -------------------------------------------------------------------
  /// Attaches to a running process debugger-style: the target stops and the
  /// handler receives an Attached event. Returns the session (owned by this
  /// process) or an error if the target is unknown/dead.
  Result<TraceSession*> trace_attach(Pid target, DebugEventHandler handler);

  /// Fork/exec a child under trace control (like `srun` under a debugger).
  Result<std::pair<Pid, TraceSession*>> spawn_traced(
      std::unique_ptr<Program> program, SpawnOptions opts,
      DebugEventHandler handler);

 private:
  friend class Node;
  friend class Machine;
  friend class Channel;
  friend class TraceSession;

  /// Changes state; a stop holds the pending tick until the resume.
  void set_state(ProcState s);
  void reap_pdeath_children();
  /// The scheduled event of a post: deliver(fn) when it fires.
  template <typename F>
  auto delivery(F&& fn) {
    return [self = this, fn = std::forward<F>(fn)]() mutable {
      self->deliver(std::move(fn));
    };
  }
  /// Runs `fn` now if Running, queues it for resume if Stopped or still
  /// Spawning, and drops it if Exited.
  template <typename F>
  void deliver(F&& fn) {
    switch (state_) {
      case ProcState::Exited:
        return;
      case ProcState::Stopped:
      case ProcState::Spawning:
        queue_held_tick();
        deferred_.emplace_back(std::forward<F>(fn));
        return;
      case ProcState::Running:
        fn();
        return;
    }
  }
  void flush_deferred();
  /// Appends the held tick to the deferred deliveries once it has come
  /// due, so it keeps its arrival order among them.
  void queue_held_tick();
  /// The held tick, run on resume: it restarts the tick phase.
  void run_held_tick();
  void attach_tracer(TraceSession* session);
  void detach_tracer();
  void register_channel(const ChannelPtr& ch);
  void forget_channel(Channel::Id id);

  Machine& machine_;
  Node& node_;
  Pid pid_;
  Pid parent_;
  std::unique_ptr<Program> program_;
  SpawnOptions options_;
  ProcState state_ = ProcState::Spawning;
  ProcStats stats_;
  SymbolSpace symbols_;
  int child_limit_;
  std::vector<Pid> children_;
  std::map<Channel::Id, ChannelPtr> channels_;
  std::map<Channel::Id, std::pair<MessageHandler, ClosedHandler>> handlers_;
  std::vector<Port> listening_;
  /// Deliveries held while not Running, in arrival order; flush_deferred()
  /// runs them from deferred_head_ on.
  std::vector<sim::Task> deferred_;
  std::size_t deferred_head_ = 0;
  std::vector<std::unique_ptr<TraceSession>> trace_sessions_;
  TraceSession* tracer_ = nullptr;  ///< session tracing *this* process
  std::function<void()> pending_resume_;
  sim::Time busy_until_ = 0;
  // Ticks (start_ticks); tick_period_ == 0 means none.
  sim::Time tick_period_ = 0;
  sim::Simulator::TimerId tick_timer_ = 0;
  sim::Time tick_next_ = 0;  ///< due time of the first tick not yet run
  /// Ticks due after this wait: until the resume while Stopped, for ever
  /// after exit.
  sim::Time tick_until_ = sim::kNever;
  /// While Stopped: the due time of the tick that was pending at the stop;
  /// it runs on resume. kNever when no tick is held.
  sim::Time tick_held_ = sim::kNever;
  bool tick_held_queued_ = false;  ///< the held tick sits in deferred_
};

}  // namespace lmon::cluster
