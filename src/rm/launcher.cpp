#include "rm/launcher.hpp"

#include <cassert>

#include "cluster/machine.hpp"
#include "common/argparse.hpp"
#include "rm/apai.hpp"
#include "simkernel/log.hpp"

namespace lmon::rm {

void Launcher::on_start(cluster::Process& self) {
  const auto& args = self.args();
  const auto mode = arg_value(args, "--mode=");
  mode_ = (mode && *mode == "cospawn") ? Mode::CoSpawn : Mode::Job;

  exe_ = arg_value(args, "--exe=").value_or("mpi_app");
  launch_fanout_ = static_cast<std::uint32_t>(
      arg_int(args, "--fanout=")
          .value_or(self.machine().costs().rm_launch_fanout));

  extra_args_ = arg_list(args, "--app-arg=");
  for (auto& a : arg_list(args, "--daemon-arg=")) {
    extra_args_.push_back(std::move(a));
  }

  // srun startup: option parsing, conf reading, credential setup.
  self.post(self.machine().costs().rm_launcher_startup, [this, &self] {
    if (mode_ == Mode::Job) {
      start_job(self);
    } else {
      start_cospawn(self);
    }
  });
}

void Launcher::start_job(cluster::Process& self) {
  const auto& args = self.args();
  const auto nnodes = arg_int(args, "--nnodes=").value_or(1);
  tpn_ = static_cast<std::uint32_t>(arg_int(args, "--tpn=").value_or(1));
  phase_ = Phase::Allocating;
  self.machine().mark("t_job_begin");
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    span_ = tracer->begin_span(
        "rm.job_launch", "rm", static_cast<int>(self.node().id()), self.pid(),
        obs::kNoSpan, "nnodes=" + std::to_string(nnodes));
  }

  const std::string ctrl_host = self.machine().front_end().hostname();
  self.connect(ctrl_host, cluster::kRmControllerPort,
               [this, &self, nnodes](Status st, cluster::ChannelPtr ch) {
                 if (!st.is_ok()) {
                   self.exit(1);
                   return;
                 }
                 ctrl_channel_ = ch;
                 AllocReq req;
                 req.nnodes = static_cast<std::uint32_t>(nnodes);
                 self.send(ch, req.encode());
               });
}

void Launcher::start_cospawn(cluster::Process& self) {
  const auto& args = self.args();
  jobid_ = static_cast<JobId>(arg_int(args, "--jobid=").value_or(0));
  report_host_ = arg_value(args, "--report-host=").value_or("");
  report_port_ =
      static_cast<std::uint16_t>(arg_int(args, "--report-port=").value_or(0));
  fabric_.port = static_cast<cluster::Port>(
      arg_int(args, "--fabric-port=").value_or(cluster::kToolFabricBasePort));
  fabric_.fanout = static_cast<std::uint32_t>(
      arg_int(args, "--fabric-fanout=").value_or(2));
  if (const auto topo = arg_value(args, "--fabric-topo=")) {
    if (const auto spec = comm::TopologySpec::parse(*topo)) {
      fabric_.topo_kind = spec->kind;
      // Only a k-ary fabric ties its arity to the forwarding degree;
      // binomial/flat keep the --fabric-fanout launch degree (their
      // parsed arity is a meaningless default).
      if (spec->kind == comm::TopologyKind::KAry && spec->arity != 0) {
        fabric_.fanout = spec->arity;
      }
    }
  }
  fabric_.fe_host = arg_value(args, "--fe-host=").value_or("");
  fabric_.fe_port =
      static_cast<std::uint16_t>(arg_int(args, "--fe-port=").value_or(0));
  fabric_.session = arg_value(args, "--session=").value_or("s0");
  fabric_.rndv_threshold = static_cast<std::uint32_t>(
      arg_int(args, "--rndv-threshold=").value_or(0));
  fabric_.heal = arg_int(args, "--heal=").value_or(0) != 0;
  fabric_.heal_grace_ms = static_cast<std::uint32_t>(
      arg_int(args, "--heal-grace-ms=").value_or(0));
  fabric_.max_sessions = static_cast<std::uint32_t>(
      arg_int(args, "--max-tree-sessions=").value_or(0));
  phase_ = Phase::Allocating;

  // Either co-locate with an existing job (--jobid) or request additional
  // nodes for middleware daemons (--alloc-nodes), the paper's "additional
  // compute resources beyond the target program's allocation".
  const auto alloc_nodes = arg_int(args, "--alloc-nodes=");
  const std::string ctrl_host = self.machine().front_end().hostname();
  self.connect(ctrl_host, cluster::kRmControllerPort,
               [this, &self, alloc_nodes](Status st, cluster::ChannelPtr ch) {
                 if (!st.is_ok()) {
                   report_done(self, false, "cannot reach controller");
                   return;
                 }
                 ctrl_channel_ = ch;
                 if (alloc_nodes && *alloc_nodes > 0) {
                   AllocReq req;
                   req.nnodes = static_cast<std::uint32_t>(*alloc_nodes);
                   req.middleware = arg_value(self.args(), "--alloc-partition=")
                                        .value_or("compute") == "mw";
                   self.send(ch, req.encode());
                 } else {
                   JobInfoReq req;
                   req.jobid = jobid_;
                   self.send(ch, req.encode());
                 }
               });
}

void Launcher::on_message(cluster::Process& self,
                          const cluster::ChannelPtr& ch,
                          cluster::Message msg) {
  auto type = peek_type(msg);
  if (!type) return;
  switch (*type) {
    case MsgType::AllocResp: {
      auto resp = AllocResp::decode(msg);
      if (resp) on_alloc_resp(self, *resp);
      break;
    }
    case MsgType::JobInfoResp: {
      auto resp = JobInfoResp::decode(msg);
      if (resp) on_job_info_resp(self, *resp);
      break;
    }
    case MsgType::TreeLaunchAck: {
      auto ack = TreeLaunchAck::decode(msg);
      if (ack) on_launch_ack(self, *ack);
      break;
    }
    case MsgType::KillDaemons: {
      if (KillDaemons::decode(msg)) kill_daemons(self);
      break;
    }
    case MsgType::TreeKillAck: {
      // Daemon teardown complete; release the allocation reference and exit.
      self.exit(0);
      break;
    }
    default:
      break;
  }
  (void)ch;
}

void Launcher::on_channel_closed(cluster::Process& self,
                                 const cluster::ChannelPtr& ch) {
  // Losing the report channel means the tool engine went away: tear down
  // daemons, mirroring srun's session cleanup when its parent dies.
  if (mode_ == Mode::CoSpawn && report_channel_ != nullptr &&
      ch->id() == report_channel_->id() && phase_ == Phase::HoldingDaemons) {
    kill_daemons(self);
  }
}

sim::Time Launcher::per_node_overhead(cluster::Process& self,
                                      std::size_t nnodes) const {
  const auto& costs = self.machine().costs();
  const double n = static_cast<double>(nnodes);
  // Linear bookkeeping plus the super-linear RM term the paper observed past
  // ~512 daemons (Jobsnap's last doubling, §5.1).
  return static_cast<sim::Time>(n * static_cast<double>(
                                        costs.rm_launcher_per_node)) +
         static_cast<sim::Time>(costs.rm_quadratic_ns_per_node2 * n * n);
}

void Launcher::on_alloc_resp(cluster::Process& self, const AllocResp& resp) {
  if (phase_ != Phase::Allocating) return;
  if (!resp.ok) {
    sim::LogLine(sim::LogLevel::Warn, self.sim().now(), "srun")
        << "allocation failed: " << resp.error;
    if (mode_ == Mode::Job) {
      self.exit(1);
    } else {
      report_done(self, false, resp.error);
    }
    return;
  }
  jobid_ = resp.jobid;
  allocation_ = resp.nodes;
  phase_ = Phase::Launching;
  {
    // Export the job id for tools (the totalview_jobid convention).
    ByteWriter w;
    w.u64(jobid_);
    self.symbols().write(apai::kJobId, std::move(w).take());
  }
  if (mode_ == Mode::CoSpawn) {
    // Fresh-allocation daemon launch (middleware case).
    fabric_.total = static_cast<std::uint32_t>(allocation_.size());
    self.machine().mark("t_daemon_begin");
    if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
      span_ = tracer->begin_span(
          "rm.daemon_launch", "rm", static_cast<int>(self.node().id()),
          self.pid(), tracer->anchor("cospawn:" + fabric_.session),
          "nodes=" + std::to_string(allocation_.size()));
    }
  }
  self.post(per_node_overhead(self, allocation_.size()),
            [this, &self] { send_tree_launch(self); });
}

void Launcher::on_job_info_resp(cluster::Process& self,
                                const JobInfoResp& resp) {
  if (phase_ != Phase::Allocating || mode_ != Mode::CoSpawn) return;
  if (!resp.ok) {
    report_done(self, false, resp.error);
    return;
  }
  allocation_ = resp.nodes;
  fabric_.total = static_cast<std::uint32_t>(allocation_.size());
  phase_ = Phase::Launching;
  self.machine().mark("t_daemon_begin");
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    span_ = tracer->begin_span(
        "rm.daemon_launch", "rm", static_cast<int>(self.node().id()),
        self.pid(), tracer->anchor("cospawn:" + fabric_.session),
        "nodes=" + std::to_string(allocation_.size()));
  }
  self.post(per_node_overhead(self, allocation_.size()),
            [this, &self] { send_tree_launch(self); });
}

void Launcher::send_tree_launch(cluster::Process& self) {
  TreeLaunchReq req;
  req.jobid = jobid_;
  req.seq = 1;
  req.mode = mode_ == Mode::Job ? LaunchMode::Tasks : LaunchMode::Daemons;
  req.executable = exe_;
  req.extra_args = extra_args_;
  req.tasks_per_node = tpn_;
  req.nodes = allocation_;
  req.hosts = HostList::pack(allocation_);
  req.fabric = fabric_;
  if (req.fabric.fanout == 0) req.fabric.fanout = launch_fanout_;
  if (mode_ == Mode::Job) req.fabric.fanout = launch_fanout_;

  assert(!allocation_.empty());
  if (obs::Tracer* tracer = self.machine().tracer();
      tracer != nullptr && span_ != obs::kNoSpan) {
    // The tree-root node daemon parents its launch span here.
    tracer->set_anchor(
        "rmtree:" + req.fabric.session + ":" + allocation_.front().host, span_);
  }
  self.connect(allocation_.front().host, cluster::kRmNodeDaemonPort,
               [this, &self, frame = req.encode()](
                   Status st, cluster::ChannelPtr ch) mutable {
                 if (!st.is_ok()) {
                   if (mode_ == Mode::Job) {
                     self.exit(1);
                   } else {
                     report_done(self, false, "tree launch connect failed");
                   }
                   return;
                 }
                 tree_channel_ = ch;
                 self.send(ch, std::move(frame));
               });
}

void Launcher::on_launch_ack(cluster::Process& self,
                             const TreeLaunchAck& ack) {
  if (phase_ != Phase::Launching) return;
  launched_ = ack.entries;
  std::sort(launched_.begin(), launched_.end(),
            [](const TaskDesc& a, const TaskDesc& b) { return a.rank < b.rank; });

  if (mode_ == Mode::Job) {
    self.machine().mark("t_job_end");
    if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
      tracer->end_span(span_, ack.ok ? "ok" : "failed: " + ack.error);
    }
    if (!ack.ok) {
      sim::LogLine(sim::LogLevel::Warn, self.sim().now(), "srun")
          << "job launch failed: " << ack.error;
      self.exit(1);
      return;
    }
    phase_ = Phase::RunningJob;
    // Publish the MPIR proctable, then hit the debugger breakpoint; if a
    // tool traces us it now fetches the RPDTAB and co-spawns its daemons.
    apai::publish(self, launched_);
    self.breakpoint(apai::kBreakpoint, [] {
      // Job released; tasks are already running.
    });
    return;
  }

  self.machine().mark("t_daemon_end");
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    tracer->end_span(span_,
                     ack.ok ? "daemons=" + std::to_string(launched_.size())
                            : "failed: " + ack.error);
  }
  report_done(self, ack.ok, ack.error);
}

void Launcher::report_done(cluster::Process& self, bool ok,
                           const std::string& error) {
  phase_ = Phase::ReportingDone;
  if (report_host_.empty() || report_port_ == 0) {
    // Nobody to report to (stand-alone use); hold daemons if ok, else exit.
    phase_ = ok ? Phase::HoldingDaemons : Phase::Init;
    if (!ok) self.exit(1);
    return;
  }
  self.connect(report_host_, report_port_,
               [this, &self, ok, error](Status st, cluster::ChannelPtr ch) {
                 if (!st.is_ok()) {
                   self.exit(1);
                   return;
                 }
                 report_channel_ = ch;
                 LaunchDone done;
                 done.ok = ok;
                 done.error = error;
                 done.jobid = jobid_;
                 done.daemons = launched_;
                 self.send(ch, done.encode());
                 phase_ = ok ? Phase::HoldingDaemons : Phase::Init;
                 if (!ok) {
                   self.post(sim::ms(1), [&self] { self.exit(1); });
                 }
               });
}

void Launcher::kill_daemons(cluster::Process& self) {
  if (phase_ == Phase::Killing) return;
  phase_ = Phase::Killing;
  if (allocation_.empty()) {
    self.exit(0);
    return;
  }
  TreeKillReq req;
  req.jobid = jobid_;
  req.seq = 2;
  req.mode = LaunchMode::Daemons;
  req.session = fabric_.session;
  req.nodes = allocation_;
  self.connect(allocation_.front().host, cluster::kRmNodeDaemonPort,
               [this, &self, frame = req.encode()](
                   Status st, cluster::ChannelPtr ch) mutable {
                 if (!st.is_ok()) {
                   self.exit(1);
                   return;
                 }
                 tree_channel_ = ch;
                 self.send(ch, std::move(frame));
               });
}

// --- RmBulkStrategy ----------------------------------------------------------

void RmBulkStrategy::launch(cluster::Process& self, comm::LaunchRequest req,
                            Callback cb) {
  const cluster::ProgramImage* image =
      self.machine().find_program(Launcher::kImageName);
  if (image == nullptr) {
    if (cb) cb(comm::LaunchResult{Status(Rc::Esys, "no srun image installed"),
                                  {}, rm::kInvalidJob});
    return;
  }

  // Accept the co-spawn launcher's report connection; its LaunchDone is the
  // strategy's result.
  const Status lst = self.listen(
      req.report_port, [this, &self, cb](cluster::ChannelPtr ch) {
        report_channel_ = ch;
        self.set_channel_handler(
            ch,
            [cb](const cluster::ChannelPtr&, cluster::Message m) {
              auto done = LaunchDone::decode(m);
              if (!done) return;
              comm::LaunchResult res;
              res.status = done->ok ? Status::ok()
                                    : Status(Rc::Esubcom, done->error);
              res.daemons = std::move(done->daemons);
              res.jobid = done->jobid;
              if (cb) cb(std::move(res));
            },
            [this](const cluster::ChannelPtr&) {
              report_channel_ = nullptr;
              if (kill_cb_) {
                auto k = std::move(kill_cb_);
                kill_cb_ = nullptr;
                k(Status::ok());
              }
            });
      });
  if (!lst.is_ok()) {
    if (cb) cb(comm::LaunchResult{lst, {}, rm::kInvalidJob});
    return;
  }

  cluster::SpawnOptions opts;
  opts.executable = Launcher::kImageName;
  opts.image_mb = image->image_mb;
  opts.args.push_back("--mode=cospawn");
  if (req.jobid != kInvalidJob) {
    opts.args.push_back("--jobid=" + std::to_string(req.jobid));
  } else {
    opts.args.push_back("--alloc-nodes=" + std::to_string(req.alloc_nodes));
    if (req.middleware_partition) {
      opts.args.push_back("--alloc-partition=mw");
    }
  }
  opts.args.push_back("--exe=" + req.daemon_exe);
  opts.args.push_back("--report-host=" + self.node().hostname());
  opts.args.push_back("--report-port=" + std::to_string(req.report_port));
  opts.args.push_back("--fabric-port=" +
                      std::to_string(req.bootstrap.port));
  opts.args.push_back("--fabric-fanout=" +
                      std::to_string(req.launch_fanout != 0
                                         ? req.launch_fanout
                                         : req.bootstrap.topology.arity));
  opts.args.push_back("--fabric-topo=" + req.bootstrap.topology.to_string());
  if (req.bootstrap.rndv_threshold != 0) {
    opts.args.push_back("--rndv-threshold=" +
                        std::to_string(req.bootstrap.rndv_threshold));
  }
  if (req.bootstrap.heal) {
    opts.args.push_back("--heal=1");
    if (req.bootstrap.heal_grace_ms != 0) {
      opts.args.push_back("--heal-grace-ms=" +
                          std::to_string(req.bootstrap.heal_grace_ms));
    }
  }
  if (req.bootstrap.max_sessions != 0) {
    opts.args.push_back("--max-tree-sessions=" +
                        std::to_string(req.bootstrap.max_sessions));
  }
  opts.args.push_back("--fe-host=" + req.bootstrap.fe_host);
  opts.args.push_back("--fe-port=" + std::to_string(req.bootstrap.fe_port));
  opts.args.push_back("--session=" + req.bootstrap.session);
  for (const auto& a : req.daemon_args) {
    opts.args.push_back("--daemon-arg=" + a);
  }
  auto res = self.spawn_child(image->factory({}), std::move(opts));
  if (!res.is_ok() && cb) {
    cb(comm::LaunchResult{res.status, {}, rm::kInvalidJob});
  }
}

void RmBulkStrategy::teardown(cluster::Process& self,
                              std::function<void(Status)> cb) {
  if (report_channel_ == nullptr) {
    if (cb) cb(Status(Rc::Edead, "no co-spawned daemons"));
    return;
  }
  kill_cb_ = std::move(cb);
  self.send(report_channel_, KillDaemons{}.encode());
}

}  // namespace lmon::rm
