#include "rsh/launchers.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <set>

#include "cluster/machine.hpp"
#include "comm/bootstrap.hpp"
#include "common/argparse.hpp"
#include "simkernel/log.hpp"

namespace lmon::rsh {

// --- serial -----------------------------------------------------------------

struct SerialRshLauncher::State {
  std::vector<LaunchTarget> targets;
  std::size_t next_index = 0;
  LaunchOutcome outcome;
  Callback cb;
};

void SerialRshLauncher::launch(cluster::Process& self,
                               std::vector<LaunchTarget> targets,
                               Callback cb) {
  auto st = std::make_shared<State>();
  st->targets = std::move(targets);
  st->cb = std::move(cb);
  st->outcome.status = Status::ok();
  next(self, std::move(st));
}

void SerialRshLauncher::next(cluster::Process& self,
                             std::shared_ptr<State> st) {
  if (st->next_index >= st->targets.size()) {
    st->cb(std::move(st->outcome));
    return;
  }
  const LaunchTarget& t = st->targets[st->next_index];
  RshSession::run(self, t.host, t.executable, t.args,
                  [&self, st](RemoteExec res) mutable {
                    if (!res.status.is_ok()) {
                      // One failed fork aborts the whole ad hoc launch; the
                      // already-started daemons stay up (leaked), exactly the
                      // unpleasant failure mode the paper describes.
                      st->outcome.status = res.status;
                      st->cb(std::move(st->outcome));
                      return;
                    }
                    st->outcome.daemons.emplace_back(
                        st->targets[st->next_index].host, res.remote_pid);
                    st->outcome.sessions.push_back(res.session);
                    st->next_index += 1;
                    next(self, st);
                  });
}

// --- tree -----------------------------------------------------------------------

namespace {

/// Splits hosts[begin..] into up to `fanout` contiguous chunks; the subtree
/// partition itself comes from comm::split_contiguous.
std::vector<std::vector<std::string>> chunk_hosts(
    const std::vector<std::string>& hosts, std::size_t begin, int fanout) {
  std::vector<std::vector<std::string>> chunks;
  if (begin >= hosts.size()) return chunks;
  const auto splits = comm::split_contiguous(
      hosts.size() - begin,
      fanout <= 0 ? 1u : static_cast<std::uint32_t>(fanout));
  chunks.reserve(splits.size());
  for (const auto& [off, len] : splits) {
    const std::size_t pos = begin + off;
    chunks.emplace_back(hosts.begin() + static_cast<std::ptrdiff_t>(pos),
                        hosts.begin() + static_cast<std::ptrdiff_t>(pos + len));
  }
  return chunks;
}

constexpr std::string_view kDaemonArgKey = "--daemon-arg=";

/// Launches agents for each chunk sequentially via rsh and wires their acks
/// into completion bookkeeping shared by the FE facade and TreeAgent.
struct SubtreeLauncher {
  /// `forwarded` holds the daemon's argv as "--daemon-arg=" entries, the
  /// same for every agent. `on_session_lost(host)` fires when a child
  /// agent's rsh session drops while the launch owner is still running (the
  /// channel-close side; a local teardown close never triggers it). The
  /// owner decides whether the loss matters by checking whether that agent
  /// already acked.
  static void launch_chunks(
      cluster::Process& self,
      std::vector<std::vector<std::string>> chunks, const std::string& exe,
      const Argv& forwarded, int fanout,
      const std::string& report_host, cluster::Port report_port,
      obs::SpanId parent_span,
      std::vector<cluster::ChannelPtr>* sessions,
      std::function<void(const std::string&)> on_session_lost,
      std::function<void(Status)> on_spawned) {
    auto remaining = std::make_shared<int>(static_cast<int>(chunks.size()));
    auto failed = std::make_shared<bool>(false);
    if (chunks.empty()) {
      on_spawned(Status::ok());
      return;
    }
    for (auto& chunk : chunks) {
      Argv agent_args;
      agent_args.reserve(5 + forwarded.size());
      agent_args.push_back("--exe=" + exe);
      agent_args.push_back("--fanout=" + std::to_string(fanout));
      agent_args.push_back("--report-host=" + report_host);
      agent_args.push_back("--report-port=" + std::to_string(report_port));
      agent_args.push_back("--hosts=" + join_csv(chunk));
      agent_args.insert(agent_args.end(), forwarded.begin(), forwarded.end());
      // Note: the callback captures the host by copy *before* the call -
      // moving it into the capture would race the host argument (argument
      // evaluation order is unspecified).
      const std::string agent_host = chunk.front();
      self.machine().count("rsh.agents_launched");
      if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
        // The child agent on agent_host parents its span here (per-level
        // fan-out chain, mirroring the rm tree's "rmtree:" anchors).
        tracer->set_anchor("rshtree:" + agent_host, parent_span);
      }
      RshSession::run(
          self, agent_host, "rsh_tree_agent", std::move(agent_args),
          [&self, sessions, remaining, failed, on_spawned, on_session_lost,
           agent_host](RemoteExec res) {
            if (!res.status.is_ok()) {
              *failed = true;
            } else {
              if (sessions != nullptr) sessions->push_back(res.session);
              if (on_session_lost) {
                self.set_channel_handler(
                    res.session, nullptr,
                    [on_session_lost, agent_host](
                        const cluster::ChannelPtr&) {
                      on_session_lost(agent_host);
                    });
              }
            }
            *remaining -= 1;
            if (*remaining == 0) {
              on_spawned(*failed ? Status(Rc::Esubcom,
                                          "tree agent launch failed")
                                 : Status::ok());
            }
          });
    }
  }
};

}  // namespace

/// FE-side collector: listens for TreeAcks from the root agents. Declared at
/// namespace scope (not anonymous) so the registry below can name it.
struct TreeCollector {
  cluster::Process& self;
  int expected;
  TreeRshLauncher::Callback cb;
  LaunchOutcome outcome;
  int received = 0;
  bool finished = false;
  std::set<std::string> acked_hosts;
  obs::SpanId span = obs::kNoSpan;

  explicit TreeCollector(cluster::Process& s) : self(s), expected(0) {}

  void on_ack(const TreeAck& ack, const cluster::ChannelPtr& ch) {
    if (finished) return;
    received += 1;
    acked_hosts.insert(ack.agent_host);
    outcome.ack_channels.push_back(ch);
    if (!ack.ok && outcome.status.is_ok()) {
      outcome.status = Status(Rc::Esubcom, ack.error);
    }
    for (const auto& d : ack.daemons) outcome.daemons.push_back(d);
    if (received == expected) finish();
  }

  /// A root agent's rsh session dropped. Before its ack that means the
  /// subtree died mid-bootstrap: stop expecting its ack and record the
  /// error, but keep collecting the surviving subtrees - finishing
  /// immediately would drop their still-in-flight sessions and ack
  /// channels (the keepalives), leaving unreapable daemons behind. After
  /// the ack the loss is routine churn.
  void on_session_lost(const std::string& host) {
    if (finished || acked_hosts.count(host) != 0) return;
    if (outcome.status.is_ok()) {
      outcome.status = Status(Rc::Esubcom, "lost tree agent on " + host);
    }
    expected -= 1;
    if (received >= expected) finish();
  }

  void fail(Status st) {
    if (finished) return;
    outcome.status = st;
    finish();
  }

  void finish();  // defined after the registry: deregisters this collector
};

namespace {
/// Per-process collector registry: lets the owning program hand incoming
/// report messages to the launcher with one handle_report() call.
std::map<cluster::Pid, std::shared_ptr<TreeCollector>>& collector_registry() {
  static std::map<cluster::Pid, std::shared_ptr<TreeCollector>> reg;
  return reg;
}
}  // namespace

void TreeCollector::finish() {
  finished = true;
  if (obs::Tracer* tracer = self.machine().tracer();
      tracer != nullptr && span != obs::kNoSpan) {
    tracer->end_span(span, outcome.status.is_ok()
                               ? "daemons=" +
                                     std::to_string(outcome.daemons.size())
                               : "failed: " + outcome.status.message());
  }
  // Deregister on every completion path (success *and* fail()); a stale
  // entry would pin this collector - and its Process reference - in the
  // static registry past the process's lifetime.
  collector_registry().erase(self.pid());
  self.stop_listening(kTreeReportPort);
  cb(std::move(outcome));
}

void TreeRshLauncher::launch(cluster::Process& self,
                             std::vector<std::string> hosts,
                             std::string daemon_exe, const Argv& daemon_args,
                             int fanout, Callback cb) {
  if (hosts.empty()) {
    cb(LaunchOutcome{});
    return;
  }
  auto collector = std::make_shared<TreeCollector>(self);
  collector->cb = std::move(cb);

  Status lst = self.listen(kTreeReportPort);
  if (!lst.is_ok()) {
    LaunchOutcome out;
    out.status = lst;
    collector->cb(std::move(out));
    return;
  }
  auto chunks = chunk_hosts(hosts, 0, fanout);
  collector->expected = static_cast<int>(chunks.size());
  collector_registry()[self.pid()] = collector;

  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    const std::string session =
        arg_value(daemon_args, "--lmon-session=").value_or("");
    collector->span = tracer->begin_span(
        "rsh.tree_launch", "rsh", static_cast<int>(self.node().id()),
        self.pid(), tracer->anchor("cospawn:" + session),
        "hosts=" + std::to_string(hosts.size()) +
            " fanout=" + std::to_string(fanout));
  }

  // Keyed once here; every agent forwards these entries as it got them.
  Argv forwarded;
  forwarded.reserve(daemon_args.size());
  for (const Arg& a : daemon_args) {
    forwarded.push_back(with_key(kDaemonArgKey, a));
  }
  SubtreeLauncher::launch_chunks(
      self, std::move(chunks), daemon_exe, forwarded, fanout,
      self.node().hostname(), kTreeReportPort, collector->span,
      &collector->outcome.sessions,
      [collector](const std::string& host) {
        collector->on_session_lost(host);
      },
      [collector](Status st) {
        if (!st.is_ok()) collector->fail(st);
      });
}

bool TreeRshLauncher::handle_report(cluster::Process& self,
                                    const cluster::ChannelPtr& ch,
                                    const cluster::Message& msg) {
  auto it = collector_registry().find(self.pid());
  if (it == collector_registry().end() || it->second == nullptr ||
      it->second->finished) {
    return false;
  }
  // Keep the collector alive across on_ack: finish() erases the registry
  // entry, which would otherwise drop the last reference mid-call.
  auto collector = it->second;
  auto ack = TreeAck::decode(msg);
  if (!ack) return false;
  collector->on_ack(*ack, ch);
  return true;
}

// --- tree agent program ------------------------------------------------------------

void TreeAgent::on_start(cluster::Process& self) {
  const auto& args = self.args();
  const std::string exe = arg_value(args, "--exe=").value_or("");
  const int fanout = static_cast<int>(arg_int(args, "--fanout=").value_or(2));
  report_host_ = arg_value(args, "--report-host=").value_or("");
  report_port_ = static_cast<cluster::Port>(
      arg_int(args, "--report-port=").value_or(kTreeReportPort));
  auto hosts = split_csv(arg_value(args, "--hosts=").value_or(""));
  // The daemon's argv, and its entries as received for the subtree; a
  // shared entry stays a view of the launch's one buffer either way.
  Argv daemon_args;
  Argv forwarded;
  for (const Arg& a : args) {
    if (!a.view().starts_with(kDaemonArgKey)) continue;
    forwarded.push_back(a);
    daemon_args.push_back(a.suffix(kDaemonArgKey.size()));
  }
  ack_.ok = true;

  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    span_ = tracer->begin_span(
        "rsh.agent", "rsh", static_cast<int>(self.node().id()), self.pid(),
        tracer->anchor("rshtree:" + self.node().hostname()),
        "hosts=" + std::to_string(hosts.size()));
    // The daemon spawned below parents its bootstrap span on this agent.
    const std::string session =
        arg_value(daemon_args, "--lmon-session=").value_or("");
    tracer->set_anchor("spawn:" + session + ":" + self.node().hostname(),
                       span_);
  }

  // Spawn the local daemon.
  const cluster::ProgramImage* image =
      exe.empty() ? nullptr : self.machine().find_program(exe);
  if (image == nullptr) {
    ack_.ok = false;
    ack_.error = "tree agent: no such daemon executable: " + exe;
    local_done_ = true;
    maybe_report(self);
    return;
  }
  cluster::SpawnOptions opts;
  opts.executable = exe;
  opts.image_mb = image->image_mb;
  opts.args = std::move(daemon_args);
  // The daemon must not outlive this agent: tree teardown reaps agents
  // (cleanly via ack-channel loss or hard via rshd session loss), and
  // either way the daemon has to go with it.
  opts.die_with_parent = true;
  auto prog = image->factory({});
  auto res = self.spawn_child(std::move(prog), std::move(opts));
  if (!res.is_ok()) {
    ack_.ok = false;
    ack_.error = res.status.message();
  } else {
    daemon_pid_ = res.value;
    ack_.daemons.emplace_back(self.node().hostname(), res.value);
  }
  local_done_ = true;

  // Recurse into the subtree.
  auto chunks = chunk_hosts(hosts, 1, fanout);
  awaiting_children_ = static_cast<int>(chunks.size());
  if (awaiting_children_ > 0) {
    (void)self.listen(kTreeAgentPort);
    SubtreeLauncher::launch_chunks(
        self, std::move(chunks), exe, forwarded, fanout,
        self.node().hostname(), kTreeAgentPort, span_, &child_sessions_,
        [this, &self](const std::string& host) {
          on_child_session_lost(self, host);
        },
        [this, &self](Status st) {
          if (!st.is_ok()) {
            ack_.ok = false;
            if (ack_.error.empty()) ack_.error = st.message();
            awaiting_children_ = 0;
            maybe_report(self);
          }
        });
  }
  maybe_report(self);
}

void TreeAgent::on_message(cluster::Process& self,
                           const cluster::ChannelPtr& ch,
                           cluster::Message msg) {
  auto ack = TreeAck::decode(msg);
  if (!ack) return;
  child_acks_.push_back(ch);
  acked_hosts_.insert(ack->agent_host);
  if (!ack->ok) {
    ack_.ok = false;
    if (ack_.error.empty()) ack_.error = ack->error;
  }
  for (const auto& d : ack->daemons) ack_.daemons.push_back(d);
  awaiting_children_ -= 1;
  maybe_report(self);
}

void TreeAgent::on_child_session_lost(cluster::Process& self,
                                      const std::string& host) {
  // A child agent's rsh session dropped. If its ack already arrived this
  // is teardown churn; before the ack the whole child subtree is dead
  // (mid-bootstrap fault), so stop waiting for it and report the failure
  // upward. The dead agent's own subtree reaps itself: its daemon dies
  // with it (die_with_parent), its children lose their ack channels and
  // cascade, and its rshd sessions hard-kill whatever remains.
  if (reported_ || acked_hosts_.count(host) != 0) return;
  ack_.ok = false;
  if (ack_.error.empty()) ack_.error = "lost tree agent on " + host;
  awaiting_children_ -= 1;
  self.machine().count("rsh.subtree_losses");
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    tracer->instant("rsh_tree_agent.subtree_lost", "rsh_tree_agent",
                    static_cast<int>(self.node().id()), self.pid(),
                    obs::kNoSpan, "lost tree agent on " + host);
  }
  maybe_report(self);
}

void TreeAgent::maybe_report(cluster::Process& self) {
  if (reported_ || !local_done_ || awaiting_children_ > 0) return;
  reported_ = true;
  if (obs::Tracer* tracer = self.machine().tracer();
      tracer != nullptr && span_ != obs::kNoSpan) {
    tracer->end_span(span_, ack_.ok ? "ok" : "failed: " + ack_.error);
  }
  ack_.agent_host = self.node().hostname();
  if (report_host_.empty()) return;
  self.connect(
      report_host_, report_port_,
      [this, &self](Status st, cluster::ChannelPtr ch) {
        if (!st.is_ok()) return;
        // The ack channel doubles as the session keepalive: when the
        // launcher (or parent agent) closes it, reap the local daemon and
        // cascade the close down the subtree. This mirrors how rshd kills
        // a remote command on session loss.
        self.set_channel_handler(
            ch, nullptr,
            [this, &self](const cluster::ChannelPtr&) {
              shutdown_subtree(self);
            });
        self.send(ch, ack_.encode());
      });
}

void TreeAgent::shutdown_subtree(cluster::Process& self) {
  if (daemon_pid_ != cluster::kInvalidPid) {
    cluster::Process* d = self.machine().find_process(daemon_pid_);
    if (d != nullptr && d->state() != cluster::ProcState::Exited) {
      d->exit(9);
    }
    daemon_pid_ = cluster::kInvalidPid;
  }
  // Close child ack channels first so child agents reap their daemons
  // before the rsh-session closes (queued behind these) hard-kill them.
  for (auto& ch : child_acks_) {
    if (ch != nullptr && ch->is_open()) self.close_channel(ch);
  }
  child_acks_.clear();
  self.exit(0);
}

// --- comm::LaunchStrategy bindings -------------------------------------------

namespace {

/// Maps an rsh LaunchOutcome into the strategy result, assigning fabric
/// ranks by the host's first position in the launch's host table (-1 for a
/// host outside it).
comm::LaunchResult outcome_to_result(const comm::HostTable& hosts,
                                     const std::string& daemon_exe,
                                     LaunchOutcome out) {
  comm::LaunchResult res;
  res.status = out.status;
  res.daemons.reserve(out.daemons.size());
  for (const auto& [host, pid] : out.daemons) {
    const auto rank = hosts.rank_of(host);
    res.daemons.push_back(rm::TaskDesc{
        host, daemon_exe, pid, rank ? static_cast<std::int32_t>(*rank) : -1});
  }
  std::sort(res.daemons.begin(), res.daemons.end(),
            [](const rm::TaskDesc& a, const rm::TaskDesc& b) {
              return a.rank < b.rank;
            });
  return res;
}

void drop_sessions(cluster::Process& self,
                   std::vector<cluster::ChannelPtr>& sessions,
                   std::function<void(Status)> cb) {
  for (auto& ch : sessions) {
    if (ch != nullptr && ch->is_open()) self.close_channel(ch);
  }
  sessions.clear();
  if (cb) cb(Status::ok());
}

}  // namespace

void SerialRshStrategy::launch(cluster::Process& self, comm::LaunchRequest req,
                               Callback cb) {
  std::vector<LaunchTarget> targets;
  targets.reserve(req.bootstrap.hosts.size());
  // One host entry for the launch; every target's argv holds it.
  const Arg hosts = comm::hosts_arg(join_csv(req.bootstrap.hosts));
  for (std::size_t r = 0; r < req.bootstrap.hosts.size(); ++r) {
    auto args = comm::bootstrap_args(
        req.bootstrap, static_cast<std::uint32_t>(r), hosts, req.daemon_args);
    targets.push_back(LaunchTarget{req.bootstrap.hosts[r], req.daemon_exe,
                                   std::move(args)});
  }
  obs::SpanId span = obs::kNoSpan;
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    span = tracer->begin_span(
        "rsh.serial_launch", "rsh", static_cast<int>(self.node().id()),
        self.pid(), tracer->anchor("cospawn:" + req.bootstrap.session),
        "hosts=" + std::to_string(req.bootstrap.hosts.size()));
    // Serial rsh has no per-host agent; every daemon parents on this span.
    for (const auto& host : req.bootstrap.hosts) {
      tracer->set_anchor("spawn:" + req.bootstrap.session + ":" + host, span);
    }
  }
  self.machine().count("rsh.serial_targets",
                       static_cast<double>(req.bootstrap.hosts.size()));
  SerialRshLauncher::launch(
      self, std::move(targets),
      [this, &self, span, table = comm::hosts_table(hosts),
       daemon_exe = std::move(req.daemon_exe),
       cb = std::move(cb)](LaunchOutcome out) {
        if (obs::Tracer* tracer = self.machine().tracer();
            tracer != nullptr && span != obs::kNoSpan) {
          tracer->end_span(
              span, out.status.is_ok()
                        ? "daemons=" + std::to_string(out.daemons.size())
                        : "failed: " + out.status.message());
        }
        sessions_ = std::move(out.sessions);
        if (cb) cb(outcome_to_result(table, daemon_exe, std::move(out)));
      });
}

void SerialRshStrategy::teardown(cluster::Process& self,
                                 std::function<void(Status)> cb) {
  drop_sessions(self, sessions_, std::move(cb));
}

void TreeRshStrategy::launch(cluster::Process& self, comm::LaunchRequest req,
                             Callback cb) {
  // One argv for everyone: bootstrap args without an explicit rank, daemons
  // resolve their rank from the host list.
  const Arg hosts = comm::hosts_arg(join_csv(req.bootstrap.hosts));
  auto daemon_args = comm::bootstrap_args(req.bootstrap, std::nullopt, hosts,
                                          req.daemon_args);
  const int fanout =
      req.launch_fanout == 0 ? 2 : static_cast<int>(req.launch_fanout);
  TreeRshLauncher::launch(
      self, std::move(req.bootstrap.hosts), req.daemon_exe, daemon_args,
      fanout,
      [this, table = comm::hosts_table(hosts), daemon_exe = req.daemon_exe,
       cb = std::move(cb)](LaunchOutcome out) {
        sessions_ = std::move(out.sessions);
        ack_channels_ = std::move(out.ack_channels);
        if (cb) cb(outcome_to_result(table, daemon_exe, std::move(out)));
      });
}

void TreeRshStrategy::teardown(cluster::Process& self,
                               std::function<void(Status)> cb) {
  // Closing the ack channels tells the root agents to reap their daemons
  // and cascade the shutdown; the rsh sessions close behind them (their
  // close events queue after the ack closes) as a hard-kill backstop.
  for (auto& ch : ack_channels_) {
    if (ch != nullptr && ch->is_open()) self.close_channel(ch);
  }
  ack_channels_.clear();
  drop_sessions(self, sessions_, std::move(cb));
}

void install_tree_agent(cluster::Machine& machine) {
  cluster::ProgramImage image;
  image.image_mb = 2.0;
  image.factory = [](const std::vector<std::string>&) {
    return std::make_unique<TreeAgent>();
  };
  machine.install_program("rsh_tree_agent", std::move(image));
}

}  // namespace lmon::rsh
