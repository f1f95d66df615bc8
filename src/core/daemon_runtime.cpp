#include "core/daemon_runtime.hpp"

#include <cassert>

#include "cluster/machine.hpp"
#include "comm/bootstrap.hpp"
#include "common/argparse.hpp"
#include "core/payloads.hpp"
#include "simkernel/log.hpp"

namespace lmon::core {

namespace {

/// Hands a delivered view to a public callback: as it is to one that takes
/// the view; to one that takes Bytes, its buffer by reference when the view
/// is all of it, else one copy.
void deliver(const std::function<void(const ByteSlice&)>& fn,
             const ByteSlice& data) {
  if (fn) fn(data);
}

template <typename Fn>
void deliver(const Fn& fn, const ByteSlice& data) {
  if (!fn) return;
  if (const Bytes* whole = data.whole()) {
    fn(*whole);
  } else {
    fn(data.to_bytes());
  }
}

}  // namespace

DaemonRuntime::DaemonRuntime(cluster::Process& self, MsgClass cls)
    : self_(self), cls_(cls) {
  assert(cls == MsgClass::FeBe || cls == MsgClass::FeMw);
}

DaemonRuntime::~DaemonRuntime() = default;

Status DaemonRuntime::init(Callbacks callbacks) {
  cbs_ = std::move(callbacks);
  sessions_[0];  // the infrastructure session always exists
  // The hostname backs the rank-from-host fallback used by launch
  // strategies that hand every daemon an identical argv (tree-rsh).
  auto params = comm::parse_bootstrap(self_.args(), self_.node().hostname());
  if (!params) {
    return Status(Rc::Einval,
                  "daemon not launched by LaunchMON (missing --lmon-* argv)");
  }
  fe_host_ = params->fe_host;
  fe_port_ = params->fe_port;

  iccl_ = std::make_unique<Iccl>(self_, std::move(*params));
  Iccl::SessionHandlers handlers;
  handlers.on_bcast = [this](std::uint32_t tag, const ByteSlice& data) {
    dispatch_bcast(tag, data);
  };
  handlers.on_gather =
      [this](std::uint32_t tag,
             std::vector<std::pair<std::uint32_t, Bytes>> entries) {
        on_internal_gather(tag, std::move(entries));
      };
  handlers.on_scatter = [this](std::uint32_t tag, const ByteSlice& data) {
    dispatch_vs_scatter(0, tag, data);
  };
  iccl_->bind_session(0, std::move(handlers));

  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    const std::string& session = iccl_->params().session;
    span_ = tracer->begin_span(
        "daemon", "daemon", static_cast<int>(self_.node().id()), self_.pid(),
        tracer->anchor("spawn:" + session + ":" + self_.node().hostname()),
        "rank=" + std::to_string(iccl_->rank()) +
            (iccl_->is_root() ? " master" : ""));
    tracer->set_anchor(
        "daemon:" + session + ":" + std::to_string(iccl_->rank()), span_);
  }

  // The master's handshake with the FE begins immediately (paper e7) while
  // the fabric wires underneath (e8..e9).
  if (iccl_->is_root()) {
    self_.machine().mark(mark_prefix() + "e8_setup_begin");
    connect_fe();
  }
  iccl_->start([this](Status st) { on_fabric_ready(st); });
  return Status::ok();
}

void DaemonRuntime::connect_fe() {
  if (fe_host_.empty() || fe_port_ == 0) {
    fail(Status(Rc::Einval, "no FE endpoint in bootstrap argv"));
    return;
  }
  self_.connect(
      fe_host_, fe_port_, [this](Status st, cluster::ChannelPtr ch) {
        if (!st.is_ok()) {
          fail(Status(Rc::Esubcom, "master cannot reach FE: " + st.message()));
          return;
        }
        fe_channel_ = ch;
        self_.set_channel_handler(
            ch,
            [this](const cluster::ChannelPtr& c, cluster::Message m) {
              on_fe_message(c, std::move(m));
            },
            [this](const cluster::ChannelPtr&) {
              // FE went away: tear the session down.
              if (cbs_.on_shutdown) {
                cbs_.on_shutdown();
              } else {
                self_.exit(0);
              }
            });
        payload::Hello hello;
        hello.session = iccl_->params().session;
        hello.rank = iccl_->rank();
        hello.pid = self_.pid();
        hello.host = self_.node().hostname();
        self_.send(ch, LmonpMessage::fe_daemon(cls_, FeDaemonMsg::Hello,
                                               hello.encode())
                           .encode());
      });
}

void DaemonRuntime::on_fabric_ready(Status st) {
  if (!st.is_ok()) {
    fail(st);
    return;
  }
  fabric_ready_ = true;
  if (iccl_->is_root()) {
    self_.machine().mark(mark_prefix() + "e9_setup_done");
    maybe_run_handshake();
  }
}

void DaemonRuntime::on_fe_message(const cluster::ChannelPtr& ch,
                                  cluster::Message m) {
  (void)ch;
  auto msg = LmonpMessage::decode(m);
  if (!msg || msg->msg_class != cls_) return;
  switch (static_cast<FeDaemonMsg>(msg->type)) {
    case FeDaemonMsg::HandshakeInit: {
      auto init = payload::HandshakeInit::decode(msg->lmon_payload);
      if (!init) return;
      buffered_rpdtab_ = std::move(init->rpdtab);
      buffered_usr_ = std::move(msg->usr_payload);
      handshake_buffered_ = true;
      maybe_run_handshake();
      break;
    }
    case FeDaemonMsg::UsrData:
      if (cbs_.on_usrdata) cbs_.on_usrdata(msg->usr_payload);
      break;
    case FeDaemonMsg::Detach:
      iccl_->broadcast(kTagShutdown, {});
      break;
    case FeDaemonMsg::VirtualAttach: {
      auto req = payload::VirtualAttach::decode(msg->lmon_payload);
      if (req) handle_virtual_attach(req->vsid);
      break;
    }
    case FeDaemonMsg::VirtualDetach: {
      auto req = payload::VirtualDetach::decode(msg->lmon_payload);
      if (req && sessions_.count(req->vsid) != 0) {
        ByteWriter w;
        w.u32(req->vsid);
        iccl_->broadcast(kTagVDetach, std::move(w).take());
      }
      break;
    }
    default:
      break;
  }
}

void DaemonRuntime::maybe_run_handshake() {
  if (!iccl_->is_root() || !fabric_ready_ || !handshake_buffered_ ||
      handshake_done_) {
    return;
  }
  handshake_done_ = true;
  self_.machine().mark(mark_prefix() + "t_collective_begin");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    collective_span_ = tracer->begin_span(
        "iccl.handshake_collective", "iccl",
        static_cast<int>(self_.node().id()), self_.pid(), span_,
        "size=" + std::to_string(iccl_->size()));
  }
  // Distribute the RPDTAB + piggybacked tool data down the fabric.
  ByteWriter w;
  w.blob(buffered_rpdtab_);
  w.blob(buffered_usr_);
  iccl_->broadcast(kTagHandshake, std::move(w).take());
}

void DaemonRuntime::on_handshake_bcast(const ByteSlice& data) {
  ByteReader r(data.span());
  auto table = r.blob_view();
  auto usr = r.blob_view();
  if (!table || !usr) {
    fail(Status(Rc::Esubcom, "malformed handshake broadcast"));
    return;
  }
  // The table stays in the broadcast buffer that every daemon of the launch
  // shares; unpack() validates that view once for all of them.
  auto rpdtab = Rpdtab::unpack(data.sub(
      static_cast<std::size_t>(table->data() - data.data()), table->size()));
  if (!rpdtab) {
    fail(Status(Rc::Esubcom, "bad RPDTAB in handshake"));
    return;
  }
  proctable_ = std::move(*rpdtab);
  // So does the tool data: a tool that decodes it per view (the TBON
  // topology) decodes it once per launch.
  usrdata_ = data.sub(static_cast<std::size_t>(usr->data() - data.data()),
                      usr->size());

  auto ack = [this](Status st) {
    ByteWriter w;
    w.boolean(st.is_ok());
    w.str(st.message());
    iccl_->contribute(kTagReadyAck, std::move(w).take());
    if (!iccl_->is_root()) {
      if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
        tracer->end_span(span_, st.is_ok() ? "ready" : "failed");
      }
    }
    if (cbs_.on_ready && !iccl_->is_root()) cbs_.on_ready(st);
  };
  if (const auto* view_init = std::get_if<1>(&cbs_.on_init);
      view_init != nullptr && *view_init) {
    (*view_init)(proctable_, usrdata_, ack);
  } else if (const auto* copy_init = std::get_if<0>(&cbs_.on_init);
             copy_init != nullptr && *copy_init) {
    (*copy_init)(proctable_, usrdata_.to_bytes(), ack);
  } else {
    ack(Status::ok());
  }
}

void DaemonRuntime::on_internal_gather(
    std::uint32_t tag, std::vector<std::pair<std::uint32_t, Bytes>> entries) {
  if (tag == kTagReadyAck) {
    // Master: all daemons initialized (or reported failure).
    bool all_ok = entries.size() == iccl_->size();
    std::string error;
    for (const auto& [rank, data] : entries) {
      ByteReader r(data);
      auto ok_f = r.boolean();
      auto msg = r.str();
      if (!ok_f || !*ok_f) {
        all_ok = false;
        if (error.empty() && msg && !msg->empty()) error = *msg;
      }
    }
    self_.machine().mark(mark_prefix() + "t_collective_end");
    if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
      tracer->end_span(collective_span_,
                       "acks=" + std::to_string(entries.size()));
    }

    payload::Ready ready;
    ready.ok = all_ok;
    ready.error = error;
    ready.ndaemons = static_cast<std::uint32_t>(entries.size());
    if (fe_channel_ != nullptr) {
      self_.machine().mark(mark_prefix() + "e10_ready");
      self_.send(fe_channel_,
                 LmonpMessage::fe_daemon(cls_, FeDaemonMsg::Ready,
                                         ready.encode(), ready_usr_)
                     .encode());
    }
    if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
      tracer->end_span(span_, all_ok ? "ready" : "failed: " + error);
    }
    if (cbs_.on_ready) {
      cbs_.on_ready(all_ok ? Status::ok() : Status(Rc::Esubcom, error));
    }
    return;
  }
  // User-level gather round.
  on_vs_gather(0, tag, std::move(entries));
}

void DaemonRuntime::dispatch_bcast(std::uint32_t tag, const ByteSlice& data) {
  if (tag == kTagHandshake) {
    on_handshake_bcast(data);
    return;
  }
  if (tag == kTagShutdown) {
    if (cbs_.on_shutdown) {
      cbs_.on_shutdown();
    } else {
      self_.exit(0);
    }
    return;
  }
  if (tag == kTagVAttach || tag == kTagVDetach) {
    ByteReader r(data.span());
    const std::uint32_t vsid = r.u32().value_or(0);
    if (vsid == 0) return;
    if (tag == kTagVAttach) {
      vsession_open(vsid);
    } else {
      vsession_close(vsid);
    }
    return;
  }
  if (tag >= kTagCommandBase && tag < kUserBarrier) {
    deliver(cbs_.on_command, data);
    return;
  }
  dispatch_vs_bcast(0, tag, data);
}

std::vector<rm::TaskDesc> DaemonRuntime::my_entries() const {
  return proctable_.entries_for_host(self_.node().hostname());
}

Status DaemonRuntime::send_usrdata_fe(Bytes b) {
  if (!is_master()) {
    return Status(Rc::Einval, "only the master daemon talks to the FE");
  }
  if (fe_channel_ == nullptr) return Status(Rc::Esubcom, "no FE link");
  self_.send(fe_channel_, LmonpMessage::fe_daemon(cls_, FeDaemonMsg::UsrData,
                                                  {}, std::move(b))
                              .encode());
  return Status::ok();
}

Status DaemonRuntime::broadcast_command(Bytes data) {
  if (!is_master()) {
    return Status(Rc::Einval, "only the master broadcasts commands");
  }
  // One tag per round: see kTagCommandBase.
  const std::uint32_t tag =
      kTagCommandBase +
      (command_count_++ % (kUserBarrier - kTagCommandBase));
  iccl_->broadcast(tag, std::move(data));
  return Status::ok();
}

void DaemonRuntime::barrier(std::function<void()> done) {
  vbarrier(0, std::move(done));
}

void DaemonRuntime::gather(
    Bytes contribution,
    std::function<void(std::vector<std::pair<std::uint32_t, Bytes>>)>
        at_master) {
  vgather(0, std::move(contribution), std::move(at_master));
}

void DaemonRuntime::broadcast(Bytes data, Delivered delivered) {
  vbroadcast(0, std::move(data), std::move(delivered));
}

void DaemonRuntime::scatter(std::vector<Bytes> parts,
                            std::function<void(const Bytes&)> delivered) {
  vscatter(0, std::move(parts), std::move(delivered));
}

// --- virtual sessions (persistent multiplexed service) ---------------------

std::uint32_t DaemonRuntime::max_virtual_sessions() const {
  const std::uint32_t configured = iccl_->params().max_sessions;
  return configured != 0 ? configured : kDefaultMaxVSessions;
}

std::vector<std::uint32_t> DaemonRuntime::virtual_sessions() const {
  std::vector<std::uint32_t> out;
  out.reserve(sessions_.size());
  for (const auto& [vsid, vs] : sessions_) {
    if (vsid != 0) out.push_back(vsid);
  }
  return out;
}

DaemonRuntime::VSession* DaemonRuntime::vsession(std::uint32_t vsid) {
  auto it = sessions_.find(vsid);
  return it == sessions_.end() ? nullptr : &it->second;
}

void DaemonRuntime::handle_virtual_attach(std::uint32_t vsid) {
  if (vsid == 0 || sessions_.count(vsid) != 0) {
    send_virtual_ready(vsid, false, "virtual session id in use", 0);
    return;
  }
  // Admission control: the tree accepts a bounded number of concurrent
  // virtual sessions; beyond the bound the attach is rejected cleanly and
  // the FE surfaces it as a Status, never a hang.
  if (sessions_.size() - 1 >= max_virtual_sessions()) {
    self_.machine().count("daemon.vattach_rejected");
    if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
      tracer->instant("daemon.vattach_rejected", "daemon",
                      static_cast<int>(self_.node().id()), self_.pid(),
                      obs::kNoSpan,
                      "vattach " + std::to_string(vsid) +
                          " rejected: session table full");
    }
    send_virtual_ready(vsid, false, "virtual session table full", 0);
    return;
  }
  ByteWriter w;
  w.u32(vsid);
  iccl_->broadcast(kTagVAttach, std::move(w).take());
}

void DaemonRuntime::vsession_open(std::uint32_t vsid) {
  if (sessions_.count(vsid) != 0) return;
  sessions_[vsid];
  Iccl::SessionHandlers handlers;
  handlers.on_bcast = [this, vsid](std::uint32_t tag,
                                   const ByteSlice& data) {
    dispatch_vs_bcast(vsid, tag, data);
  };
  handlers.on_gather =
      [this, vsid](std::uint32_t tag,
                   std::vector<std::pair<std::uint32_t, Bytes>> entries) {
        on_vs_gather(vsid, tag, std::move(entries));
      };
  handlers.on_scatter = [this, vsid](std::uint32_t tag,
                                     const ByteSlice& data) {
    dispatch_vs_scatter(vsid, tag, data);
  };
  iccl_->bind_session(vsid, std::move(handlers));
  self_.machine().count("daemon.vsessions_opened");
  if (cbs_.on_vsession_attach) cbs_.on_vsession_attach(vsid);
  // Attach ack rides the new session's own namespace; the master answers
  // the FE once every daemon's ack arrived.
  iccl_->contribute(StreamKey{vsid, kTagReadyAck}, {});
}

void DaemonRuntime::vsession_close(std::uint32_t vsid) {
  auto it = sessions_.find(vsid);
  if (it == sessions_.end() || vsid == 0) return;
  iccl_->unbind_session(vsid);
  sessions_.erase(it);
  self_.machine().count("daemon.vsessions_closed");
  if (cbs_.on_vsession_detach) cbs_.on_vsession_detach(vsid);
}

void DaemonRuntime::send_virtual_ready(std::uint32_t vsid, bool ok,
                                       std::string error,
                                       std::uint32_t ndaemons) {
  if (fe_channel_ == nullptr) return;
  payload::VirtualReady ready;
  ready.vsid = vsid;
  ready.ok = ok;
  ready.error = std::move(error);
  ready.ndaemons = ndaemons;
  self_.send(fe_channel_,
             LmonpMessage::fe_daemon(cls_, FeDaemonMsg::VirtualReady,
                                     ready.encode())
                 .encode());
}

Status DaemonRuntime::vbarrier(std::uint32_t vsid,
                               std::function<void()> done) {
  VSession* vs = vsession(vsid);
  if (vs == nullptr) return Status(Rc::Einval, "unknown virtual session");
  const std::uint32_t tag = kUserBarrier + vs->barrier_count++;
  // Barrier = gather(empty) at master + broadcast(release).
  vs->bcast_waiters[tag] = std::function<void(const ByteSlice&)>(
      [done = std::move(done)](const ByteSlice&) {
        if (done) done();
      });
  if (is_master()) {
    vs->gather_waiters[tag] = [this, vsid, tag](auto) {
      iccl_->broadcast(StreamKey{vsid, tag}, {});
    };
  }
  iccl_->contribute(StreamKey{vsid, tag}, {});
  return Status::ok();
}

Status DaemonRuntime::vgather(
    std::uint32_t vsid, Bytes contribution,
    std::function<void(std::vector<std::pair<std::uint32_t, Bytes>>)>
        at_master) {
  VSession* vs = vsession(vsid);
  if (vs == nullptr) return Status(Rc::Einval, "unknown virtual session");
  const std::uint32_t tag = kUserGather + vs->gather_count++;
  if (is_master()) vs->gather_waiters[tag] = std::move(at_master);
  iccl_->contribute(StreamKey{vsid, tag}, std::move(contribution));
  return Status::ok();
}

Status DaemonRuntime::vbroadcast(std::uint32_t vsid, Bytes data,
                                 Delivered delivered) {
  VSession* vs = vsession(vsid);
  if (vs == nullptr) return Status(Rc::Einval, "unknown virtual session");
  const std::uint32_t tag = kUserBcast + vs->bcast_count++;
  vs->bcast_waiters[tag] = std::move(delivered);
  if (is_master()) {
    iccl_->broadcast(StreamKey{vsid, tag}, std::move(data));
    return Status::ok();
  }
  // The payload may have raced ahead of this call (see VSession pending
  // buffers).
  auto it = vs->pending_bcasts.find(tag);
  if (it != vs->pending_bcasts.end()) {
    ByteSlice buffered = std::move(it->second);
    vs->pending_bcasts.erase(it);
    dispatch_vs_bcast(vsid, tag, buffered);
  }
  return Status::ok();
}

Status DaemonRuntime::vscatter(std::uint32_t vsid, std::vector<Bytes> parts,
                               std::function<void(const Bytes&)> delivered) {
  VSession* vs = vsession(vsid);
  if (vs == nullptr) return Status(Rc::Einval, "unknown virtual session");
  const std::uint32_t tag = kUserScatter + vs->scatter_count++;
  vs->scatter_waiters[tag] = std::move(delivered);
  if (is_master()) {
    assert(parts.size() == iccl_->size());
    iccl_->scatter(StreamKey{vsid, tag}, std::move(parts));
    return Status::ok();
  }
  auto it = vs->pending_scatters.find(tag);
  if (it != vs->pending_scatters.end()) {
    ByteSlice buffered = std::move(it->second);
    vs->pending_scatters.erase(it);
    dispatch_vs_scatter(vsid, tag, buffered);
  }
  return Status::ok();
}

void DaemonRuntime::dispatch_vs_bcast(std::uint32_t vsid, std::uint32_t tag,
                                      const ByteSlice& data) {
  VSession* vs = vsession(vsid);
  if (vs == nullptr) return;
  auto it = vs->bcast_waiters.find(tag);
  if (it == vs->bcast_waiters.end()) {
    vs->pending_bcasts[tag] = data;  // arrived before the local call
    self_.machine().count("daemon.early_bcast_buffered");
    self_.machine().observe(
        "daemon.early_arrival_depth",
        static_cast<double>(vs->pending_bcasts.size() +
                            vs->pending_scatters.size()));
    return;
  }
  Delivered fn = std::move(it->second);
  vs->bcast_waiters.erase(it);
  std::visit([&data](const auto& f) { deliver(f, data); }, fn);
}

void DaemonRuntime::dispatch_vs_scatter(std::uint32_t vsid, std::uint32_t tag,
                                        const ByteSlice& data) {
  VSession* vs = vsession(vsid);
  if (vs == nullptr) return;
  auto it = vs->scatter_waiters.find(tag);
  if (it == vs->scatter_waiters.end()) {
    vs->pending_scatters[tag] = data;  // arrived before the local call
    self_.machine().count("daemon.early_scatter_buffered");
    self_.machine().observe(
        "daemon.early_arrival_depth",
        static_cast<double>(vs->pending_bcasts.size() +
                            vs->pending_scatters.size()));
    return;
  }
  auto fn = std::move(it->second);
  vs->scatter_waiters.erase(it);
  deliver(fn, data);
}

void DaemonRuntime::on_vs_gather(
    std::uint32_t vsid, std::uint32_t tag,
    std::vector<std::pair<std::uint32_t, Bytes>> entries) {
  VSession* vs = vsession(vsid);
  if (vs == nullptr) return;
  if (vsid != 0 && tag == kTagReadyAck) {
    // Every daemon acked the attach on the session's own stream.
    send_virtual_ready(vsid, entries.size() == iccl_->size(), "",
                       static_cast<std::uint32_t>(entries.size()));
    return;
  }
  auto it = vs->gather_waiters.find(tag);
  if (it == vs->gather_waiters.end()) return;
  auto fn = std::move(it->second);
  vs->gather_waiters.erase(it);
  if (fn) fn(std::move(entries));
}

void DaemonRuntime::fail(Status st) {
  if (failed_) return;
  failed_ = true;
  sim::LogLine(sim::LogLevel::Warn, self_.sim().now(), "lmon_daemon")
      << "rank " << (iccl_ ? iccl_->rank() : 0)
      << " session failure: " << st.to_string();
  self_.machine().count("daemon.failures");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->end_span(span_, "failed: " + st.to_string());
  }
  if (is_master() && fe_channel_ != nullptr) {
    payload::Ready ready;
    ready.ok = false;
    ready.error = st.message();
    self_.send(fe_channel_, LmonpMessage::fe_daemon(cls_, FeDaemonMsg::Ready,
                                                    ready.encode())
                                .encode());
  }
  if (cbs_.on_ready) cbs_.on_ready(st);
}

}  // namespace lmon::core
