#include "core/fe_api.hpp"

#include <cassert>

#include "cluster/machine.hpp"
#include "core/engine.hpp"
#include "core/payloads.hpp"
#include "simkernel/log.hpp"

namespace lmon::core {

namespace {
constexpr cluster::Port kFePortBase = 7050;
constexpr int kFePortSpan = 64;
/// Per-session port block: fabric, engine-report, MW fabric, MW reports.
constexpr int kPortsPerSession = 8;
}  // namespace

FrontEnd::FrontEnd(cluster::Process& self, int max_sessions)
    : self_(self), max_sessions_(max_sessions > 0 ? max_sessions : 1) {
  for (int i = 0; i < kPortSlots; ++i) free_port_slots_.insert(i);
}

Status FrontEnd::init() {
  for (int i = 0; i < kFePortSpan; ++i) {
    const cluster::Port candidate =
        static_cast<cluster::Port>(kFePortBase + i);
    Status st = self_.listen(
        candidate, [this](cluster::ChannelPtr ch) { on_accept(ch); });
    if (st.is_ok()) {
      port_ = candidate;
      return Status::ok();
    }
  }
  return Status(Rc::Esys, "no free FE port");
}

cluster::Result<int> FrontEnd::create_session() {
  if (port_ == 0) return {Status(Rc::Einval, "FrontEnd::init not called"), -1};
  if (static_cast<int>(sessions_.size()) >= max_sessions_) {
    return {Status(Rc::Enomem, "session table full"), -1};
  }
  // Lowest released id first (LMON_fe_createSession semantics: descriptors
  // are a reusable resource, not a monotonic counter).
  int sid = -1;
  if (!free_ids_.empty()) {
    sid = *free_ids_.begin();
    free_ids_.erase(free_ids_.begin());
  } else {
    sid = next_session_++;
  }
  Session s;
  s.id = sid;
  sessions_.emplace(sid, std::move(s));
  return {Status::ok(), sid};
}

Status FrontEnd::destroy_session(int sid) {
  Session* s = find(sid);
  if (s == nullptr) return Status(Rc::Enosession, "unknown session");
  if (s->state != SessionState::Idle && s->state != SessionState::Failed &&
      s->state != SessionState::Torn) {
    return Status(Rc::Ebusy, "session still live (detach or kill first)");
  }
  if (s->done || s->mw_done || s->teardown_done) {
    return Status(Rc::Ebusy, "operation in flight");
  }
  if (s->infra != nullptr) {
    if (s->vsid != 0) {
      s->infra->vsids.erase(s->vsid);
    } else if (s->infra->owner_sid == sid) {
      // The tree owner is going away: the tree (already torn down or
      // failed) releases its port block for reuse.
      tear_virtuals(*s->infra);
      if (s->infra->port_slot >= 0) {
        free_port_slots_.insert(s->infra->port_slot);
      }
    }
  }
  sessions_.erase(sid);
  free_ids_.insert(sid);
  return Status::ok();
}

FrontEnd::Session* FrontEnd::find(int sid) {
  auto it = sessions_.find(sid);
  return it == sessions_.end() ? nullptr : &it->second;
}

const FrontEnd::Session* FrontEnd::find(int sid) const {
  auto it = sessions_.find(sid);
  return it == sessions_.end() ? nullptr : &it->second;
}

FrontEnd::Session* FrontEnd::find_by_cookie(const std::string& cookie) {
  for (auto& [sid, s] : sessions_) {
    if (s.cookie == cookie) return &s;
  }
  return nullptr;
}

InfraHandle FrontEnd::infra_of(int sid) const {
  const Session* s = find(sid);
  if (s == nullptr || s->infra == nullptr) return InfraHandle{};
  return InfraHandle{s->infra->owner_sid};
}

std::uint32_t FrontEnd::vsid_of(int sid) const {
  const Session* s = find(sid);
  return s == nullptr ? 0 : s->vsid;
}

std::size_t FrontEnd::tree_session_count(int sid) const {
  const Session* s = find(sid);
  if (s == nullptr || s->infra == nullptr) return 0;
  return 1 + s->infra->vsids.size();
}

void FrontEnd::launch_and_spawn(int sid, const rm::JobSpec& job,
                                SpawnConfig cfg, Done done) {
  start_operation(sid, /*attach=*/false, &job, cluster::kInvalidPid,
                  std::move(cfg), std::move(done));
}

void FrontEnd::attach_and_spawn(int sid, cluster::Pid launcher_pid,
                                SpawnConfig cfg, Done done) {
  start_operation(sid, /*attach=*/true, nullptr, launcher_pid, std::move(cfg),
                  std::move(done));
}

void FrontEnd::start_operation(int sid, bool attach, const rm::JobSpec* job,
                               cluster::Pid target, SpawnConfig cfg,
                               Done done) {
  Session* s = find(sid);
  if (s == nullptr) {
    if (done) done(Status(Rc::Enosession, "unknown session"));
    return;
  }
  if (s->state != SessionState::Idle) {
    if (done) done(Status(Rc::Ebusy, "session already used"));
    return;
  }
  if (cfg.attach_to.valid()) {
    s->cfg = std::move(cfg);
    start_virtual_attach(*s, std::move(done));
    return;
  }
  // Bind the session's infrastructure record: the tree bootstrap below is
  // what makes it real. Each FE instance owns a disjoint block of fabric/
  // report ports derived from its own LMONP port, so several tool front
  // ends can share a login node without their engines or daemon fabrics
  // colliding; each *tree* consumes one of the FE's 64 slots (virtual
  // sessions consume none).
  if (free_port_slots_.empty()) {
    if (done) done(Status(Rc::Enomem, "no free port block for a new tree"));
    return;
  }
  auto infra = std::make_shared<Infra>();
  infra->owner_sid = sid;
  infra->port_slot = *free_port_slots_.begin();
  free_port_slots_.erase(free_port_slots_.begin());
  const int fe_index = static_cast<int>(port_) - kFePortBase;
  infra->fabric_port = static_cast<cluster::Port>(
      cluster::kToolFabricBasePort + fe_index * kPortSlots * kPortsPerSession +
      infra->port_slot * kPortsPerSession);
  infra->report_port = static_cast<cluster::Port>(infra->fabric_port + 4);
  infra->mw_fabric_port = static_cast<cluster::Port>(infra->fabric_port + 2);
  s->cookie = "s" + std::to_string(sid) + "p" + std::to_string(self_.pid());
  infra->cookie = s->cookie;
  s->infra = infra;
  s->vsid = 0;

  self_.machine().mark("e0_fe_call");
  s->state = SessionState::EngineStarting;
  s->cfg = std::move(cfg);
  s->done = std::move(done);

  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    s->span = tracer->begin_span(
        "session", "fe", static_cast<int>(self_.node().id()), self_.pid(),
        obs::kNoSpan,
        "cookie=" + s->cookie + (attach ? " op=attach" : " op=launch"));
    tracer->set_anchor("session:" + s->cookie, s->span);
  }

  cluster::SpawnOptions opts;
  opts.executable = "lmon_engine";
  opts.image_mb = 9.0;
  opts.args.push_back(attach ? "--op=attach" : "--op=launch");
  opts.args.push_back("--session=" + s->cookie);
  opts.args.push_back("--fe-host=" + self_.node().hostname());
  opts.args.push_back("--fe-port=" + std::to_string(port_));
  if (attach) {
    opts.args.push_back("--target-pid=" + std::to_string(target));
  } else {
    assert(job != nullptr);
    opts.args.push_back("--nnodes=" + std::to_string(job->nnodes));
    opts.args.push_back("--tpn=" + std::to_string(job->tasks_per_node));
    opts.args.push_back("--exe=" + job->executable);
    for (const auto& a : job->app_args) {
      opts.args.push_back("--app-arg=" + a);
    }
  }
  opts.args.push_back("--daemon-exe=" + s->cfg.daemon_exe);
  for (const auto& a : s->cfg.daemon_args) {
    opts.args.push_back("--daemon-arg=" + a);
  }
  opts.args.push_back("--fabric-port=" +
                      std::to_string(infra->fabric_port));
  // Unset knobs travel as "auto": the engine resolves them against the
  // platform profile once the proctable pins the scale (core::auto_tune).
  if (s->cfg.topology) {
    comm::TopologySpec topo = *s->cfg.topology;
    if (topo.arity == 0) {
      topo.arity = static_cast<std::uint32_t>(
          self_.machine().costs().rm_launch_fanout);
    }
    opts.args.push_back("--fabric-topo=" + topo.to_string());
    opts.args.push_back("--fabric-fanout=" + std::to_string(topo.arity));
  } else {
    opts.args.push_back("--fabric-topo=auto");
  }
  opts.args.push_back(
      "--launch-strategy=" +
      (s->cfg.launch_strategy
           ? std::string(comm::to_string(*s->cfg.launch_strategy))
           : std::string("auto")));
  opts.args.push_back("--rndv=" + s->cfg.rndv.to_string());
  if (!s->cfg.platform_profile.empty()) {
    opts.args.push_back("--platform=" + s->cfg.platform_profile);
  }
  if (!s->cfg.calibration_file.empty()) {
    opts.args.push_back("--calibration=" + s->cfg.calibration_file);
  }
  if (s->cfg.heal) {
    opts.args.push_back("--heal=1");
    if (s->cfg.heal_grace_ms != 0) {
      opts.args.push_back("--heal-grace-ms=" +
                          std::to_string(s->cfg.heal_grace_ms));
    }
  }
  if (s->cfg.max_tree_sessions != 0) {
    opts.args.push_back("--max-tree-sessions=" +
                        std::to_string(s->cfg.max_tree_sessions));
  }
  opts.args.push_back("--report-port=" +
                      std::to_string(infra->report_port));

  auto res = self_.spawn_child(std::make_unique<EngineProgram>(),
                               std::move(opts));
  if (!res.is_ok()) {
    finish(*s, res.status);
    return;
  }
  infra->engine_pid = res.value;
}

void FrontEnd::start_virtual_attach(Session& s, Done done) {
  Session* owner = find(s.cfg.attach_to.owner_sid);
  if (owner == nullptr || owner->infra == nullptr ||
      owner->infra->owner_sid != owner->id) {
    s.state = SessionState::Failed;
    if (done) done(Status(Rc::Enosession, "attach_to names no tree"));
    return;
  }
  InfraPtr infra = owner->infra;
  if (owner->state != SessionState::Ready || infra->be_ch == nullptr) {
    s.state = SessionState::Failed;
    if (done) done(Status(Rc::Esubcom, "tree not ready for attach"));
    return;
  }
  const std::uint32_t vsid = infra->next_vsid++;
  s.infra = infra;
  s.vsid = vsid;
  s.state = SessionState::Handshaking;
  s.done = std::move(done);
  infra->vsids[vsid] = s.id;

  self_.machine().mark("mux_attach_begin");
  self_.machine().count("fe.vattach");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    s.span = tracer->begin_span(
        "vsession", "fe", static_cast<int>(self_.node().id()), self_.pid(),
        tracer->anchor("session:" + infra->cookie),
        "cookie=" + infra->cookie + " vsid=" + std::to_string(vsid));
  }
  payload::VirtualAttach req;
  req.vsid = vsid;
  self_.send(infra->be_ch,
             LmonpMessage::fe_daemon(MsgClass::FeBe,
                                     FeDaemonMsg::VirtualAttach, req.encode())
                 .encode());
}

void FrontEnd::on_accept(cluster::ChannelPtr ch) {
  // Every inbound LMONP connection (engine, BE master, MW master)
  // identifies itself with a Hello carrying the session cookie.
  self_.set_channel_handler(
      ch,
      [this](const cluster::ChannelPtr& c, cluster::Message m) {
        auto msg = LmonpMessage::decode(m);
        if (!msg) return;
        auto hello = payload::Hello::decode(msg->lmon_payload);
        if (!hello) return;
        // MW sessions use "<cookie>-mwN" cookies.
        std::string cookie = hello->session;
        const auto mw_pos = cookie.find("-mw");
        if (mw_pos != std::string::npos) cookie = cookie.substr(0, mw_pos);
        Session* s = find_by_cookie(cookie);
        if (s == nullptr) {
          self_.close_channel(const_cast<cluster::ChannelPtr&>(c));
          return;
        }
        switch (msg->msg_class) {
          case MsgClass::FeEngine:
            bind_engine_channel(*s, c);
            break;
          case MsgClass::FeBe:
          case MsgClass::FeMw:
            bind_daemon_channel(*s, c, msg->msg_class);
            break;
        }
      },
      nullptr);
}

void FrontEnd::bind_engine_channel(Session& s, const cluster::ChannelPtr& ch) {
  s.infra->engine_ch = ch;
  const int sid = s.id;
  self_.set_channel_handler(
      ch,
      [this, sid](const cluster::ChannelPtr&, cluster::Message m) {
        Session* sp = find(sid);
        if (sp == nullptr) return;
        auto msg = LmonpMessage::decode(m);
        if (msg) on_engine_message(*sp, *msg);
      },
      [this, sid](const cluster::ChannelPtr&) {
        Session* sp = find(sid);
        if (sp == nullptr) return;
        if (sp->infra != nullptr) sp->infra->engine_ch = nullptr;
        if (sp->teardown_done) {
          sp->state = SessionState::Torn;
          if (sp->infra != nullptr) tear_virtuals(*sp->infra);
          auto cb = std::move(sp->teardown_done);
          sp->teardown_done = nullptr;
          cb(Status::ok());
        } else if (sp->state != SessionState::Ready &&
                   sp->state != SessionState::Torn &&
                   sp->state != SessionState::Failed) {
          finish(*sp, Status(Rc::Edead, "engine exited unexpectedly"));
        }
      });
}

void FrontEnd::bind_daemon_channel(Session& s, const cluster::ChannelPtr& ch,
                                   MsgClass cls) {
  const int sid = s.id;
  if (cls == MsgClass::FeBe) {
    s.infra->be_ch = ch;
    self_.machine().mark("e7_handshake_begin");
  } else {
    s.infra->mw_ch = ch;
  }
  self_.set_channel_handler(
      ch,
      [this, sid, cls](const cluster::ChannelPtr&, cluster::Message m) {
        Session* sp = find(sid);
        if (sp == nullptr) return;
        auto msg = LmonpMessage::decode(m);
        if (msg) on_daemon_message(*sp, cls, *msg);
      },
      [this, sid, cls](const cluster::ChannelPtr&) {
        Session* sp = find(sid);
        if (sp == nullptr || sp->infra == nullptr) return;
        if (cls == MsgClass::FeBe) {
          sp->infra->be_ch = nullptr;
          tear_virtuals(*sp->infra);
        } else {
          sp->infra->mw_ch = nullptr;
        }
      });

  if (cls == MsgClass::FeMw && !s.infra->mw_spawned) {
    // The MW master can dial in before the engine's MwSpawned lands. The
    // tool's data provider builds its topology from the MW table, so the
    // handshake waits for it (sent from the MwSpawned handler).
    s.infra->mw_handshake_held = true;
    return;
  }
  send_handshake_init(s, ch, cls);
}

void FrontEnd::send_handshake_init(Session& s, const cluster::ChannelPtr& ch,
                                   MsgClass cls) {
  const SpawnConfig& cfg = cls == MsgClass::FeBe ? s.cfg : s.mw_cfg;
  payload::HandshakeInit init;
  init.rpdtab = s.infra->proctable.pack();
  Bytes usr;
  if (cfg.piggyback) {
    usr = cfg.fe_data_provider ? cfg.fe_data_provider() : cfg.fe_to_be_data;
  }
  self_.send(ch, LmonpMessage::fe_daemon(cls, FeDaemonMsg::HandshakeInit,
                                         init.encode(), std::move(usr))
                     .encode());
  if (s.state == SessionState::Spawning && cls == MsgClass::FeBe) {
    s.state = SessionState::Handshaking;
  }
}

void FrontEnd::on_engine_message(Session& s, const LmonpMessage& msg) {
  switch (static_cast<FeEngineMsg>(msg.type)) {
    case FeEngineMsg::Hello:
      break;  // channel already bound
    case FeEngineMsg::ProctableData: {
      auto table = Rpdtab::unpack(msg.lmon_payload);
      if (table) {
        s.infra->proctable = std::move(*table);
        s.infra->have_proctable = true;
        s.state = SessionState::Spawning;
        self_.machine().mark("fe_proctable_received");
      }
      break;
    }
    case FeEngineMsg::DaemonsSpawned: {
      auto spawned = payload::DaemonsSpawned::decode(msg.lmon_payload);
      if (!spawned) break;
      if (!spawned->ok) {
        finish(s, Status(Rc::Esys, "daemon spawn failed: " + spawned->error));
        break;
      }
      auto table = Rpdtab::unpack(std::move(spawned->daemon_table));
      if (table) s.infra->daemon_table = std::move(*table);
      if (!spawned->tuned.empty()) {
        if (auto tuned = TunedConfig::decode(spawned->tuned)) {
          s.infra->tuned = std::move(*tuned);
          s.infra->have_tuned = true;
        }
      }
      s.infra->daemons_spawned = true;
      break;
    }
    case FeEngineMsg::MwSpawned: {
      auto spawned = payload::DaemonsSpawned::decode(msg.lmon_payload);
      if (!spawned) break;
      if (!spawned->ok) {
        finish_mw(s, Status(Rc::Esys, "MW spawn failed: " + spawned->error));
        break;
      }
      auto table = Rpdtab::unpack(std::move(spawned->daemon_table));
      if (table) s.infra->mw_table = std::move(*table);
      s.infra->mw_spawned = true;
      if (s.infra->mw_handshake_held && s.infra->mw_ch != nullptr) {
        s.infra->mw_handshake_held = false;
        send_handshake_init(s, s.infra->mw_ch, MsgClass::FeMw);
      }
      break;
    }
    case FeEngineMsg::EngineError: {
      auto err = payload::EngineError::decode(msg.lmon_payload);
      const std::string detail =
          err ? err->stage + ": " + err->error : "unknown engine error";
      if (s.mw_done) {
        finish_mw(s, Status(Rc::Esys, detail));
      } else {
        finish(s, Status(Rc::Esys, detail));
      }
      break;
    }
    case FeEngineMsg::StatusEvent:
      break;  // job exit notifications; tools may poll state
    default:
      break;
  }
}

void FrontEnd::on_daemon_message(Session& s, MsgClass cls,
                                 const LmonpMessage& msg) {
  switch (static_cast<FeDaemonMsg>(msg.type)) {
    case FeDaemonMsg::Ready: {
      auto ready = payload::Ready::decode(msg.lmon_payload);
      if (!ready) break;
      if (cls == MsgClass::FeBe) {
        s.ready_usr = msg.usr_payload;
        if (!ready->ok) {
          finish(s, Status(Rc::Esubcom, "daemons failed: " + ready->error));
          break;
        }
        // Non-piggybacked tool data goes out as a separate round trip now.
        if (!s.cfg.piggyback && !s.cfg.fe_to_be_data.empty()) {
          self_.send(s.infra->be_ch,
                     LmonpMessage::fe_daemon(cls, FeDaemonMsg::UsrData, {},
                                             s.cfg.fe_to_be_data)
                         .encode());
        }
        finish(s, Status::ok());
      } else {
        if (!ready->ok) {
          finish_mw(s, Status(Rc::Esubcom, "MW failed: " + ready->error));
          break;
        }
        if (!s.mw_cfg.piggyback && !s.mw_cfg.fe_to_be_data.empty()) {
          self_.send(s.infra->mw_ch,
                     LmonpMessage::fe_daemon(cls, FeDaemonMsg::UsrData, {},
                                             s.mw_cfg.fe_to_be_data)
                         .encode());
        }
        finish_mw(s, Status::ok());
      }
      break;
    }
    case FeDaemonMsg::VirtualReady: {
      if (cls == MsgClass::FeBe && s.infra != nullptr) {
        on_virtual_ready(*s.infra, msg.lmon_payload);
      }
      break;
    }
    case FeDaemonMsg::UsrData: {
      auto& handler =
          cls == MsgClass::FeBe ? s.be_usr_handler : s.mw_usr_handler;
      if (handler) handler(msg.usr_payload);
      break;
    }
    default:
      break;
  }
}

void FrontEnd::on_virtual_ready(Infra& infra, const Bytes& payload) {
  auto ready = payload::VirtualReady::decode(payload);
  if (!ready) return;
  auto it = infra.vsids.find(ready->vsid);
  if (it == infra.vsids.end()) return;
  Session* vs = find(it->second);
  if (vs == nullptr) return;
  if (ready->ok) {
    self_.machine().mark("mux_attach_ready");
    finish(*vs, Status::ok());
    return;
  }
  // Clean admission reject (or bind failure): the descriptor is reusable,
  // the tree unaffected.
  infra.vsids.erase(it);
  vs->infra = nullptr;
  vs->vsid = 0;
  finish(*vs, Status(Rc::Enomem, "virtual attach rejected: " + ready->error));
}

void FrontEnd::tear_virtuals(Infra& infra) {
  for (auto& [vsid, sid] : infra.vsids) {
    Session* vs = find(sid);
    if (vs == nullptr) continue;
    if (vs->done) {
      // Attach still in flight when the tree died.
      finish(*vs, Status(Rc::Edead, "tree torn down during attach"));
    }
    vs->state = SessionState::Torn;
  }
  infra.vsids.clear();
}

void FrontEnd::finish(Session& s, Status st) {
  if (st.is_ok()) {
    s.state = SessionState::Ready;
    self_.machine().mark("e11_return");
  } else {
    s.state = SessionState::Failed;
    sim::LogLine(sim::LogLevel::Warn, self_.sim().now(), "lmon_fe")
        << "session " << s.id << " failed: " << st.to_string();
  }
  if (obs::Tracer* tracer = self_.machine().tracer();
      tracer != nullptr && s.span != obs::kNoSpan) {
    std::string label =
        "cookie=" + (s.infra != nullptr ? s.infra->cookie : s.cookie);
    if (s.vsid != 0) label += " vsid=" + std::to_string(s.vsid);
    tracer->end_span(s.span, st.is_ok()
                                 ? label + " ok"
                                 : label + " failed: " + st.to_string());
  }
  if (s.done) {
    auto cb = std::move(s.done);
    s.done = nullptr;
    cb(st);
  }
}

void FrontEnd::finish_mw(Session& s, Status st) {
  if (s.mw_done) {
    auto cb = std::move(s.mw_done);
    s.mw_done = nullptr;
    cb(st);
  }
}

void FrontEnd::launch_mw_daemons(int sid, std::uint32_t nnodes,
                                 SpawnConfig cfg, Done done) {
  Session* s = find(sid);
  if (s == nullptr) {
    if (done) done(Status(Rc::Enosession, "unknown session"));
    return;
  }
  if (s->infra == nullptr || s->infra->engine_ch == nullptr ||
      s->vsid != 0) {
    if (done) done(Status(Rc::Einval, "no engine for session"));
    return;
  }
  if (s->mw_done) {
    if (done) done(Status(Rc::Ebusy, "MW launch already in flight"));
    return;
  }
  s->mw_cfg = std::move(cfg);
  s->mw_done = std::move(done);
  s->infra->mw_spawned = false;
  s->infra->mw_handshake_held = false;

  payload::LaunchMwReq req;
  req.nnodes = nnodes;
  req.daemon_exe = s->mw_cfg.daemon_exe;
  req.daemon_args = s->mw_cfg.daemon_args;
  req.fabric_port = s->infra->mw_fabric_port;
  // MW fabrics have no tuner pass (they ride the RM's co-spawn); an unset
  // topology falls back to the platform's k-ary RM fan-out directly.
  const comm::TopologySpec mw_topo = s->mw_cfg.topology.value_or(
      comm::TopologySpec{comm::TopologyKind::KAry, 0});
  req.fabric_fanout =
      mw_topo.arity != 0 ? mw_topo.arity
                         : static_cast<std::uint32_t>(
                               self_.machine().costs().rm_launch_fanout);
  req.fabric_topo = mw_topo.kind;
  self_.send(s->infra->engine_ch,
             LmonpMessage::fe_engine(FeEngineMsg::LaunchMwReq, req.encode())
                 .encode());
}

FrontEnd::SessionState FrontEnd::state(int sid) const {
  const Session* s = find(sid);
  return s == nullptr ? SessionState::Torn : s->state;
}

const Rpdtab* FrontEnd::proctable(int sid) const {
  const Session* s = find(sid);
  if (s == nullptr || s->infra == nullptr) return nullptr;
  return s->infra->have_proctable ? &s->infra->proctable : nullptr;
}

const Rpdtab* FrontEnd::daemon_table(int sid) const {
  const Session* s = find(sid);
  if (s == nullptr || s->infra == nullptr) return nullptr;
  return s->infra->daemons_spawned ? &s->infra->daemon_table : nullptr;
}

const Rpdtab* FrontEnd::mw_table(int sid) const {
  const Session* s = find(sid);
  if (s == nullptr || s->infra == nullptr) return nullptr;
  return &s->infra->mw_table;
}

const Bytes* FrontEnd::ready_usrdata(int sid) const {
  const Session* s = find(sid);
  return s != nullptr ? &s->ready_usr : nullptr;
}

const TunedConfig* FrontEnd::tuned_config(int sid) const {
  const Session* s = find(sid);
  if (s == nullptr || s->infra == nullptr) return nullptr;
  return s->infra->have_tuned ? &s->infra->tuned : nullptr;
}

Status FrontEnd::send_usrdata_be(int sid, Bytes data) {
  Session* s = find(sid);
  if (s == nullptr) return Status(Rc::Enosession, "unknown session");
  if (s->infra == nullptr || s->infra->be_ch == nullptr) {
    return Status(Rc::Esubcom, "no BE master link");
  }
  self_.send(s->infra->be_ch,
             LmonpMessage::fe_daemon(MsgClass::FeBe, FeDaemonMsg::UsrData, {},
                                     std::move(data))
                 .encode());
  return Status::ok();
}

Status FrontEnd::send_usrdata_mw(int sid, Bytes data) {
  Session* s = find(sid);
  if (s == nullptr) return Status(Rc::Enosession, "unknown session");
  if (s->infra == nullptr || s->infra->mw_ch == nullptr) {
    return Status(Rc::Esubcom, "no MW master link");
  }
  self_.send(s->infra->mw_ch,
             LmonpMessage::fe_daemon(MsgClass::FeMw, FeDaemonMsg::UsrData, {},
                                     std::move(data))
                 .encode());
  return Status::ok();
}

void FrontEnd::set_be_usrdata_handler(int sid, UsrDataHandler h) {
  Session* s = find(sid);
  if (s != nullptr) s->be_usr_handler = std::move(h);
}

void FrontEnd::set_mw_usrdata_handler(int sid, UsrDataHandler h) {
  Session* s = find(sid);
  if (s != nullptr) s->mw_usr_handler = std::move(h);
}

void FrontEnd::detach(int sid, Done done) {
  Session* s = find(sid);
  if (s == nullptr) {
    if (done) done(Status(Rc::Enosession, "unknown session"));
    return;
  }
  if (s->vsid != 0) {
    // Virtual session: close only this stream; the tree stays up for the
    // owner and its other sessions. The detach is fire-and-forget, like
    // the engine-side DetachReq.
    if (s->infra != nullptr && s->infra->be_ch != nullptr &&
        s->state == SessionState::Ready) {
      payload::VirtualDetach req;
      req.vsid = s->vsid;
      self_.send(s->infra->be_ch,
                 LmonpMessage::fe_daemon(MsgClass::FeBe,
                                         FeDaemonMsg::VirtualDetach,
                                         req.encode())
                     .encode());
      self_.machine().count("fe.vdetach");
    }
    if (s->infra != nullptr) s->infra->vsids.erase(s->vsid);
    s->state = SessionState::Torn;
    if (done) self_.post(sim::ms(0), [done] { done(Status::ok()); });
    return;
  }
  if (s->infra == nullptr || s->infra->engine_ch == nullptr) {
    s->state = SessionState::Torn;
    if (done) done(Status::ok());
    return;
  }
  s->teardown_done = std::move(done);
  self_.send(s->infra->engine_ch,
             LmonpMessage::fe_engine(FeEngineMsg::DetachReq).encode());
}

void FrontEnd::kill(int sid, Done done) {
  Session* s = find(sid);
  if (s == nullptr) {
    if (done) done(Status(Rc::Enosession, "unknown session"));
    return;
  }
  if (s->vsid != 0) {
    // Killing a virtual session cannot kill the shared job; it degrades to
    // a stream detach.
    detach(sid, std::move(done));
    return;
  }
  if (s->infra == nullptr || s->infra->engine_ch == nullptr) {
    s->state = SessionState::Torn;
    if (done) done(Status::ok());
    return;
  }
  s->teardown_done = std::move(done);
  self_.send(s->infra->engine_ch,
             LmonpMessage::fe_engine(FeEngineMsg::KillReq).encode());
}

cluster::Port FrontEnd::fabric_port_of(int sid) const {
  const Session* s = find(sid);
  return (s == nullptr || s->infra == nullptr) ? 0 : s->infra->fabric_port;
}

}  // namespace lmon::core
