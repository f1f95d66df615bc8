#include "core/engine.hpp"

#include <algorithm>
#include <cassert>

#include "cluster/cost_model_registry.hpp"
#include "cluster/machine.hpp"
#include "common/argparse.hpp"
#include "core/payloads.hpp"
#include "obs/metrics.hpp"
#include "rm/apai.hpp"
#include "rsh/launchers.hpp"
#include "simkernel/log.hpp"

namespace lmon::core {

cluster::DebugEvent EventManager::pop() {
  assert(!queue_.empty());
  cluster::DebugEvent ev = std::move(queue_.front());
  queue_.pop_front();
  return ev;
}

LmonEvent EventDecoder::decode(const cluster::DebugEvent& native) const {
  LmonEvent ev;
  ev.native = native;
  switch (native.type) {
    case cluster::DebugEventType::Stopped:
      ev.type = native.symbol == rm::apai::kBreakpoint
                    ? LmonEventType::JobStoppedAtBreakpoint
                    : LmonEventType::Ignored;
      break;
    case cluster::DebugEventType::Attached:
      ev.type = LmonEventType::AttachComplete;
      break;
    case cluster::DebugEventType::Exited:
      ev.type = LmonEventType::JobExited;
      break;
  }
  return ev;
}

void EngineProgram::on_start(cluster::Process& self) {
  const auto& args = self.args();
  session_ = arg_value(args, "--session=").value_or("s0");
  fe_host_ = arg_value(args, "--fe-host=").value_or("");
  fe_port_ =
      static_cast<cluster::Port>(arg_int(args, "--fe-port=").value_or(0));
  attach_mode_ = arg_value(args, "--op=").value_or("launch") == "attach";

  // Session options: which strategy bootstraps the daemons and what shape
  // their fabric tree takes. "auto" knobs stay unset here - the tuner
  // resolves them once the proctable tells us the scale (tune_session).
  const std::string strategy_arg =
      arg_value(args, "--launch-strategy=").value_or("auto");
  strategy_opt_ = strategy_arg == "auto"
                      ? std::nullopt
                      : comm::launch_strategy_from_string(strategy_arg);
  const std::string topo_arg =
      arg_value(args, "--fabric-topo=").value_or("auto");
  if (topo_arg == "auto") {
    topo_opt_ = std::nullopt;
  } else if (auto spec = comm::TopologySpec::parse(topo_arg)) {
    topo_opt_ = *spec;
    // TopologySpec::to_string() drops the arity for non-k-ary kinds, so the
    // FE ships the launch-protocol degree separately in --fabric-fanout=;
    // fold it back in so an explicit fan-out survives the argv round trip.
    if (const auto fanout = arg_int(args, "--fabric-fanout=");
        fanout && topo_opt_->arity == 0) {
      topo_opt_->arity = static_cast<std::uint32_t>(*fanout);
    }
  } else if (const auto fanout = arg_int(args, "--fabric-fanout=")) {
    topo_opt_ = comm::TopologySpec{comm::TopologyKind::KAry,
                                   static_cast<std::uint32_t>(*fanout)};
  }
  if (const auto rndv = arg_value(args, "--rndv=")) {
    rndv_setting_ = RndvSetting::parse(*rndv).value_or(RndvSetting{});
  }
  platform_ = arg_value(args, "--platform=").value_or("");
  calibration_ = arg_value(args, "--calibration=").value_or("");
  heal_ = arg_int(args, "--heal=").value_or(0) != 0;
  heal_grace_ms_ = static_cast<std::uint32_t>(
      arg_int(args, "--heal-grace-ms=").value_or(0));
  max_tree_sessions_ = static_cast<std::uint32_t>(
      arg_int(args, "--max-tree-sessions=").value_or(0));

  // Pre-tuning placeholders; tune_session() overwrites all three, plus
  // rndv_threshold_ (0 until then). The launch protocol's fan-out is
  // independent of the fabric family: binomial/flat fabrics still forward
  // the bulk launch (and tree-rsh agents) at the configured degree, not at
  // the spec's unused arity.
  strategy_kind_ = strategy_opt_.value_or(comm::LaunchStrategyKind::RmBulk);
  fabric_topo_ = topo_opt_.value_or(comm::TopologySpec{
      comm::TopologyKind::KAry, 0});
  launch_fanout_ = static_cast<std::uint32_t>(
      arg_int(args, "--fabric-fanout=").value_or(fabric_topo_.arity));

  adapter_ = adapter_factory_ ? adapter_factory_()
                              : std::make_unique<SlurmAdapter>();

  self.machine().mark("e1_engine_start");
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    span_ = tracer->begin_span(
        "engine", "engine", static_cast<int>(self.node().id()), self.pid(),
        tracer->anchor("session:" + session_), "session=" + session_);
  }
  // Scale-independent engine bookkeeping ("all other LaunchMON costs").
  const sim::Time fixed = self.machine().costs().engine_fixed_cost;
  self.machine().charge("other", fixed);
  self.post(fixed, [this, &self] {
    self.connect(fe_host_, fe_port_,
                 [this, &self](Status st, cluster::ChannelPtr ch) {
                   if (!st.is_ok()) {
                     self.exit(1);  // nothing to report to
                     return;
                   }
                   fe_channel_ = ch;
                   self.set_channel_handler(
                       ch,
                       [this, &self](const cluster::ChannelPtr& c,
                                     cluster::Message m) {
                         on_fe_message(self, c, std::move(m));
                       },
                       [this, &self](const cluster::ChannelPtr&) {
                         // FE died: clean up the session.
                         teardown_daemons(self);
                         adapter_->detach_job();
                         self.exit(0);
                       });
                   payload::Hello hello;
                   hello.session = session_;
                   hello.pid = self.pid();
                   hello.host = self.node().hostname();
                   send_fe(self, LmonpMessage::fe_engine(FeEngineMsg::Hello,
                                                         hello.encode()));
                   start_operation(self);
                 });
  });
}

void EngineProgram::start_operation(cluster::Process& self) {
  phase_ = Phase::WaitingForJob;
  auto handler = [this, &self](const cluster::DebugEvent& ev) {
    event_manager_.push(ev);
    drive(self);
  };

  if (attach_mode_) {
    const auto target = arg_int(self.args(), "--target-pid=");
    if (!target) {
      send_error(self, "attach", "no --target-pid");
      return;
    }
    launcher_pid_ = static_cast<cluster::Pid>(*target);
    self.machine().mark("e2_rm_launcher");
    if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
      rm_span_ = tracer->begin_span(
          "engine.rm_attach", "engine", static_cast<int>(self.node().id()),
          self.pid(), span_, "target=" + std::to_string(launcher_pid_));
    }
    Status st = adapter_->attach_job(self, launcher_pid_, handler);
    if (!st.is_ok()) send_error(self, "attach", st.message());
    return;
  }

  rm::JobSpec spec;
  spec.nnodes = static_cast<int>(
      arg_int(self.args(), "--nnodes=").value_or(1));
  spec.tasks_per_node =
      static_cast<int>(arg_int(self.args(), "--tpn=").value_or(1));
  spec.executable = arg_value(self.args(), "--exe=").value_or("mpi_app");
  spec.app_args = arg_list(self.args(), "--app-arg=");
  self.machine().mark("e2_rm_launcher");
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    rm_span_ = tracer->begin_span(
        "engine.rm_launch", "engine", static_cast<int>(self.node().id()),
        self.pid(), span_, "nnodes=" + std::to_string(spec.nnodes));
  }
  auto res = adapter_->launch_job(self, spec, handler);
  if (!res.is_ok()) {
    send_error(self, "launch", res.status.message());
    return;
  }
  launcher_pid_ = res.value;
}

void EngineProgram::drive(cluster::Process& self) {
  while (!event_manager_.empty()) {
    const LmonEvent ev = decoder_.decode(event_manager_.pop());
    handle_event(self, ev);
  }
}

void EngineProgram::handle_event(cluster::Process& self,
                                 const LmonEvent& ev) {
  switch (ev.type) {
    case LmonEventType::JobStoppedAtBreakpoint:
    case LmonEventType::AttachComplete:
      if (phase_ == Phase::WaitingForJob) handle_job_stopped(self);
      break;
    case LmonEventType::JobExited:
      handle_job_exited(self, ev.native.exit_code);
      break;
    case LmonEventType::Ignored:
      break;
  }
}

void EngineProgram::handle_job_stopped(cluster::Process& self) {
  phase_ = Phase::FetchingTable;
  // Total event-handling cost across the RM trace: #debug events times the
  // average handler cost (paper: "18 ms at any scale" on SLURM, because a
  // well designed RM has no events that grow with job size).
  const auto& costs = self.machine().costs();
  const sim::Time tracing =
      static_cast<sim::Time>(costs.rm_debug_events) *
      costs.engine_handler_cost;
  if (!tracing_cost_charged_) {
    tracing_cost_charged_ = true;
    self.machine().charge("tracing", tracing);
  }
  self.post(tracing, [this, &self] {
    self.machine().mark("e3_mpir_breakpoint");
    if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
      tracer->end_span(rm_span_);
    }
    fetch_and_ship_proctable(self);
  });
}

void EngineProgram::fetch_and_ship_proctable(cluster::Process& self) {
  const sim::Time fetch_begin = self.sim().now();
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    rpdtab_span_ = tracer->begin_span("engine.rpdtab_fetch", "engine",
                                      static_cast<int>(self.node().id()),
                                      self.pid(), span_);
  }
  adapter_->fetch_proctable([this, &self, fetch_begin](Status st,
                                                       Bytes blob) {
    if (!st.is_ok()) {
      send_error(self, "rpdtab-fetch", st.message());
      return;
    }
    self.machine().mark("e4_rpdtab_fetched");
    self.machine().charge("rpdtab_fetch", self.sim().now() - fetch_begin);
    if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
      tracer->end_span(rpdtab_span_,
                       "bytes=" + std::to_string(blob.size()));
    }
    auto table = Rpdtab::unpack(std::move(blob));
    if (!table) {
      send_error(self, "rpdtab-fetch", "malformed proctable");
      return;
    }
    proctable_ = std::move(*table);
    send_fe(self, LmonpMessage::fe_engine(FeEngineMsg::ProctableData,
                                          proctable_.pack()));
    // Recover the job id (totalview_jobid convention) for `srun --jobid`-
    // style co-location, then launch the daemons.
    adapter_->fetch_jobid([this, &self](Status jst, rm::JobId jobid) {
      if (!jst.is_ok()) {
        send_error(self, "jobid-fetch", jst.message());
        return;
      }
      jobid_ = jobid;
      co_spawn_daemons(self);
    });
  });
}

bool EngineProgram::tune_session(cluster::Process& self) {
  // Cost base: the machine's own calibration, replaced by a named platform
  // profile when the session selected one, overlaid by a calibration file.
  cluster::CostModel costs = self.machine().costs();
  if (!platform_.empty()) {
    const auto profile =
        cluster::CostModelRegistry::builtin().find(platform_);
    if (!profile) {
      send_error(self, "auto-tune",
                 "unknown platform profile: " + platform_);
      return false;
    }
    costs = *profile;
  }
  if (!calibration_.empty()) {
    Status st = cluster::CostModelRegistry::apply_calibration_file(
        calibration_, costs);
    if (!st.is_ok()) {
      send_error(self, "auto-tune", st.message());
      return false;
    }
  }

  AutoTuneRequest req;
  req.strategy = strategy_opt_;
  req.topology = topo_opt_;
  req.rndv = rndv_setting_;
  req.platform = platform_;
  const std::size_t nhosts = proctable_.hosts().size();
  req.n_nodes = static_cast<int>(nhosts == 0 ? 1 : nhosts);
  req.tasks_per_node = static_cast<int>(std::max<std::size_t>(
      1, nhosts == 0 ? 1 : proctable_.size() / nhosts));

  obs::Tracer* tracer = self.machine().tracer();
  obs::SpanId tune_span = obs::kNoSpan;
  if (tracer != nullptr) {
    tune_span = tracer->begin_span(
        "engine.autotune", "engine", static_cast<int>(self.node().id()),
        self.pid(), span_,
        "n=" + std::to_string(req.n_nodes) +
            (platform_.empty() ? std::string() : " platform=" + platform_));
  }
  tuned_ = auto_tune(costs, req);
  tuned_.heal = heal_;
  tuned_valid_ = true;
  strategy_kind_ = tuned_.strategy;
  fabric_topo_ = tuned_.topology;
  launch_fanout_ = tuned_.topology.arity;
  rndv_threshold_ = tuned_.rndv_threshold;
  if (tracer != nullptr) {
    tracer->end_span(
        tune_span,
        "strategy=" + std::string(comm::to_string(tuned_.strategy)) +
            " topo=" + tuned_.topology.to_string() +
            " rndv=" + std::to_string(tuned_.rndv_threshold) +
            " predicted_s=" + std::to_string(tuned_.predicted_total_s));
  }
  if (obs::Metrics* metrics = self.machine().metrics(); metrics != nullptr) {
    metrics->set_gauge("autotune.predicted_total_s",
                       tuned_.predicted_total_s);
    metrics->set_gauge("autotune.strategy",
                       static_cast<double>(tuned_.strategy));
    metrics->set_gauge("autotune.fabric_arity",
                       static_cast<double>(tuned_.topology.arity));
    metrics->set_gauge("autotune.rndv_threshold_bytes",
                       static_cast<double>(tuned_.rndv_threshold));
    metrics->set_gauge("autotune.bcast_crossover_bytes",
                       static_cast<double>(tuned_.bcast_crossover));
    metrics->set_gauge("autotune.heal", tuned_.heal ? 1.0 : 0.0);
  }
  return true;
}

void EngineProgram::co_spawn_daemons(cluster::Process& self) {
  phase_ = Phase::Spawning;
  const auto& args = self.args();
  if (!tune_session(self)) return;

  comm::LaunchRequest req;
  req.daemon_exe = arg_value(args, "--daemon-exe=").value_or("");
  req.daemon_args = arg_list(args, "--daemon-arg=");
  req.bootstrap.topology = fabric_topo_;
  req.bootstrap.port = static_cast<cluster::Port>(
      arg_int(args, "--fabric-port=").value_or(cluster::kToolFabricBasePort));
  req.bootstrap.session = session_;
  req.bootstrap.fe_host = fe_host_;
  req.bootstrap.fe_port = fe_port_;
  req.bootstrap.hosts = proctable_.hosts();
  req.bootstrap.size =
      static_cast<std::uint32_t>(req.bootstrap.hosts.size());
  req.bootstrap.rndv_threshold = rndv_threshold_;
  req.bootstrap.heal = heal_;
  req.bootstrap.heal_grace_ms = heal_grace_ms_;
  req.bootstrap.max_sessions = max_tree_sessions_;
  req.launch_fanout = launch_fanout_;
  req.jobid = jobid_;
  req.report_port = static_cast<cluster::Port>(
      arg_int(args, "--report-port=").value_or(0));

  if (req.daemon_exe.empty()) {
    // Pure job-control session (no daemons requested): job is usable now.
    phase_ = Phase::Running;
    if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
      tracer->end_span(span_, "no daemons");
    }
    adapter_->continue_job();
    payload::DaemonsSpawned spawned;
    spawned.ok = true;
    if (tuned_valid_) spawned.tuned = tuned_.encode();
    send_fe(self, LmonpMessage::fe_engine(FeEngineMsg::DaemonsSpawned,
                                          spawned.encode()));
    return;
  }

  // The strategy is a session option: the RM's scalable bulk launch by
  // default, with the paper's §2 ad hoc baselines available for ablation.
  strategy_ = comm::make_launch_strategy(strategy_kind_);
  self.machine().mark("e5_cospawn_invoked");
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    cospawn_span_ = tracer->begin_span(
        "engine.cospawn", "engine", static_cast<int>(self.node().id()),
        self.pid(), span_,
        "strategy=" + std::string(comm::to_string(strategy_kind_)) +
            " hosts=" + std::to_string(req.bootstrap.hosts.size()));
    tracer->set_anchor("cospawn:" + session_, cospawn_span_);
  }
  strategy_->launch(self, std::move(req),
                    [this, &self](comm::LaunchResult res) {
                      on_daemons_launched(self, std::move(res));
                    });
}

void EngineProgram::on_daemons_launched(cluster::Process& self,
                                        comm::LaunchResult res) {
  self.machine().mark("e6_daemons_spawned");
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    tracer->end_span(cospawn_span_,
                     "daemons=" + std::to_string(res.daemons.size()));
    tracer->end_span(span_);
  }
  if (res.jobid != rm::kInvalidJob) jobid_ = res.jobid;
  payload::DaemonsSpawned spawned;
  spawned.ok = res.status.is_ok();
  spawned.error = res.status.message();
  spawned.daemon_table = rm::apai::encode_proctable(res.daemons);
  if (tuned_valid_) spawned.tuned = tuned_.encode();
  send_fe(self, LmonpMessage::fe_engine(FeEngineMsg::DaemonsSpawned,
                                        spawned.encode()));
  phase_ = Phase::Running;
  // Release the job: the tool daemons are in place.
  adapter_->continue_job();
}

void EngineProgram::teardown_daemons(cluster::Process& self) {
  if (strategy_ != nullptr) strategy_->teardown(self, nullptr);
  // MW sessions are always RM-bulk via the adapter.
  adapter_->kill_daemons(nullptr);
}

void EngineProgram::handle_job_exited(cluster::Process& self, int code) {
  if (phase_ == Phase::WaitingForJob || phase_ == Phase::FetchingTable) {
    send_error(self, "job", "RM launcher exited before daemon launch");
    return;
  }
  payload::StatusEvent ev;
  ev.kind = payload::StatusEvent::JobExited;
  ev.code = code;
  send_fe(self,
          LmonpMessage::fe_engine(FeEngineMsg::StatusEvent, ev.encode()));
}

void EngineProgram::on_fe_message(cluster::Process& self,
                                  const cluster::ChannelPtr& ch,
                                  cluster::Message m) {
  (void)ch;
  auto msg = LmonpMessage::decode(m);
  if (!msg || msg->msg_class != MsgClass::FeEngine) return;
  switch (static_cast<FeEngineMsg>(msg->type)) {
    case FeEngineMsg::DetachReq:
      teardown_daemons(self);
      adapter_->detach_job();
      self.post(sim::ms(1), [&self] { self.exit(0); });
      break;
    case FeEngineMsg::KillReq:
      teardown_daemons(self);
      adapter_->kill_tasks(self, jobid_, proctable_.hosts());
      adapter_->kill_job();
      // Give the kill requests time to leave before tearing down.
      self.post(sim::ms(50), [&self] { self.exit(0); });
      break;
    case FeEngineMsg::ShutdownReq:
      adapter_->detach_job();
      self.exit(0);
      break;
    case FeEngineMsg::LaunchMwReq:
      handle_launch_mw(self, msg->lmon_payload);
      break;
    default:
      break;
  }
}

void EngineProgram::handle_launch_mw(cluster::Process& self,
                                     const Bytes& b) {
  auto req = payload::LaunchMwReq::decode(b);
  if (!req) return;
  RmAdapter::CoSpawnConfig cfg;
  cfg.alloc_nodes = req->nnodes;
  cfg.middleware_partition = true;
  cfg.daemon_exe = req->daemon_exe;
  cfg.daemon_args = req->daemon_args;
  cfg.fabric.port = req->fabric_port;
  cfg.fabric.fanout = req->fabric_fanout;
  cfg.fabric.topo_kind = req->fabric_topo;
  cfg.fabric.rndv_threshold = rndv_threshold_;
  cfg.fabric.heal = heal_;
  cfg.fabric.heal_grace_ms = heal_grace_ms_;
  cfg.fabric.max_sessions = max_tree_sessions_;
  cfg.fabric.fe_host = fe_host_;
  cfg.fabric.fe_port = fe_port_;
  cfg.fabric.session = session_ + "-mw" + std::to_string(mw_sessions_);
  cfg.report_host = self.node().hostname();
  // Distinct report port per MW launch, next to the BE report port.
  const auto base = arg_int(self.args(), "--report-port=").value_or(0);
  cfg.report_port =
      static_cast<cluster::Port>(base + 1 + mw_sessions_);
  mw_sessions_ += 1;

  Status st = adapter_->co_spawn(self, cfg, [this, &self](rm::LaunchDone done) {
    payload::DaemonsSpawned spawned;
    spawned.ok = done.ok;
    spawned.error = done.error;
    spawned.daemon_table = rm::apai::encode_proctable(done.daemons);
    send_fe(self, LmonpMessage::fe_engine(FeEngineMsg::MwSpawned,
                                          spawned.encode()));
  });
  if (!st.is_ok()) send_error(self, "mw-spawn", st.message());
}

void EngineProgram::on_message(cluster::Process& self,
                               const cluster::ChannelPtr& ch,
                               cluster::Message msg) {
  // Tree-rsh launches report back over plain connections; hand those acks
  // to the launcher. Everything else the engine speaks flows over channels
  // with dedicated handlers.
  (void)rsh::TreeRshLauncher::handle_report(self, ch, msg);
}

void EngineProgram::on_child_exit(cluster::Process& self, cluster::Pid child,
                                  int exit_code) {
  (void)self;
  (void)child;
  (void)exit_code;
  // Co-spawn launchers report over their channel; exits are routine.
}

void EngineProgram::send_fe(cluster::Process& self, LmonpMessage msg) {
  if (fe_channel_ != nullptr) self.send(fe_channel_, msg.encode());
}

void EngineProgram::send_error(cluster::Process& self,
                               const std::string& stage,
                               const std::string& error) {
  sim::LogLine(sim::LogLevel::Warn, self.sim().now(), "lmon_engine")
      << stage << " failed: " << error;
  if (obs::Tracer* tracer = self.machine().tracer(); tracer != nullptr) {
    tracer->end_span(span_, stage + " failed: " + error);
  }
  payload::EngineError err;
  err.stage = stage;
  err.error = error;
  send_fe(self,
          LmonpMessage::fe_engine(FeEngineMsg::EngineError, err.encode()));
}

}  // namespace lmon::core
