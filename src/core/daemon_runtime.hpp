// daemon_runtime.hpp - shared implementation of the BE and MW APIs.
//
// The paper's BE (§3.3) and MW (§3.4) APIs have deliberately parallel
// requirements: consume the RM-provided bootstrap parameters, wire the
// ICCL fabric, handshake with the front end through one master
// representative, distribute the RPDTAB, and expose minimal collectives.
// DaemonRuntime implements that machinery once; lmon::core::BackEnd and
// lmon::core::MiddleWare (be_api.hpp / mw_api.hpp) bind it to the FeBe and
// FeMw LMONP message classes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>

#include "cluster/process.hpp"
#include "core/iccl.hpp"
#include "core/lmonp.hpp"
#include "core/rpdtab.hpp"
#include "obs/trace.hpp"

namespace lmon::core {

class DaemonRuntime {
 public:
  /// A callback handed delivered bytes, in either form: one that takes
  /// `const ByteSlice&` views them in place, in the buffer that every
  /// daemon of the session shares; one that takes `const Bytes&` gets that
  /// buffer by reference when the view is all of it, else its own copy.
  using Delivered = std::variant<std::function<void(const Bytes&)>,
                                 std::function<void(const ByteSlice&)>>;
  using Done = std::function<void(Status)>;
  /// on_init's handler, in either form: the piggybacked tool data as its
  /// own copy, or as a view of the handshake broadcast.
  using InitHandler = std::variant<
      std::function<void(const Rpdtab& proctable, const Bytes& usrdata,
                         Done done)>,
      std::function<void(const Rpdtab& proctable, const ByteSlice& usrdata,
                         Done done)>>;

  struct Callbacks {
    /// Local tool initialization, invoked on every daemon once the RPDTAB
    /// and piggybacked tool data arrive. Call `done` when the daemon is
    /// operational; the master reports Ready to the FE only after all
    /// daemons have done so.
    InitHandler on_init;
    /// Session became ready (every daemon) or failed (status not ok).
    std::function<void(Status)> on_ready;
    /// Master only: tool data sent by the FE outside the startup exchange.
    std::function<void(const Bytes&)> on_usrdata;
    /// Every daemon: a command the master fanned out with
    /// broadcast_command(). Unlike broadcast(), commands need no matching
    /// call on the receivers, so the master can initiate fleet-wide actions
    /// (e.g. relaying an FE request) at any time.
    std::function<void(const Bytes&)> on_command;
    /// FE asked the session to shut down (default: exit(0)).
    std::function<void()> on_shutdown;
    /// Persistent multiplexed service: a virtual session attached to (or
    /// detached from) this tree. Fires on every daemon. Optional.
    std::function<void(std::uint32_t vsid)> on_vsession_attach;
    std::function<void(std::uint32_t vsid)> on_vsession_detach;
  };

  /// `cls` selects the LMONP pair: FeBe for back ends, FeMw for middleware.
  DaemonRuntime(cluster::Process& self, MsgClass cls);
  ~DaemonRuntime();

  /// Parses the RM-provided argv, wires the fabric and runs the handshake.
  /// Fails fast (Einval) when the argv lacks the bootstrap parameters,
  /// which is what a daemon started outside LaunchMON sees.
  Status init(Callbacks callbacks);

  // --- identity ("personality" in MW terms) --------------------------------
  [[nodiscard]] std::uint32_t rank() const { return iccl_->rank(); }
  [[nodiscard]] std::uint32_t size() const { return iccl_->size(); }
  [[nodiscard]] bool is_master() const { return iccl_->is_root(); }
  [[nodiscard]] const std::string& session() const {
    return iccl_->params().session;
  }

  // --- data from the handshake ------------------------------------------------
  [[nodiscard]] const Rpdtab& proctable() const { return proctable_; }
  /// RPDTAB entries co-located with this daemon.
  [[nodiscard]] std::vector<rm::TaskDesc> my_entries() const;
  /// The piggybacked tool data, in place in the handshake broadcast.
  [[nodiscard]] const ByteSlice& usrdata() const { return usrdata_; }

  // --- FE communication (master's representative link) --------------------------
  /// Master only: user payload piggybacked onto the Ready message.
  void set_ready_usr_payload(Bytes b) { ready_usr_ = std::move(b); }
  /// Master only: sends tool data to the FE after startup.
  Status send_usrdata_fe(Bytes b);

  /// Master only: delivers `data` to every daemon's on_command callback
  /// (including the master's own).
  Status broadcast_command(Bytes data);

  // --- minimal collectives (§3.3: "we only support simple barriers,
  // broadcasts, gathers and scatters") -----------------------------------------
  /// SPMD discipline: every daemon must invoke the same sequence of
  /// collective calls; rounds are matched by per-primitive counters.
  void barrier(std::function<void()> done);
  /// All ranks contribute; `at_master` fires on the master only, with the
  /// contributions in rank order.
  void gather(Bytes contribution,
              std::function<void(std::vector<std::pair<std::uint32_t, Bytes>>)>
                  at_master);
  /// Master passes data; everyone's `delivered` fires with it.
  void broadcast(Bytes data, Delivered delivered);
  /// Master passes size() parts; everyone's `delivered` fires with its own.
  void scatter(std::vector<Bytes> parts,
               std::function<void(const Bytes&)> delivered);

  // --- virtual sessions (persistent multiplexed service) ------------------
  // The same collective surface, namespaced to one virtual session that the
  // FE attached over this tree. Rounds of different sessions never collide:
  // they are keyed (vsid, tag) all the way through the fabric.
  /// Per-tree admission bound (bootstrap --lmon-max-sessions; default 64).
  [[nodiscard]] std::uint32_t max_virtual_sessions() const;
  /// Currently attached virtual session ids (ascending).
  [[nodiscard]] std::vector<std::uint32_t> virtual_sessions() const;
  Status vbarrier(std::uint32_t vsid, std::function<void()> done);
  Status vgather(std::uint32_t vsid, Bytes contribution,
                 std::function<
                     void(std::vector<std::pair<std::uint32_t, Bytes>>)>
                     at_master);
  Status vbroadcast(std::uint32_t vsid, Bytes data, Delivered delivered);
  Status vscatter(std::uint32_t vsid, std::vector<Bytes> parts,
                  std::function<void(const Bytes&)> delivered);

  [[nodiscard]] Iccl& iccl() { return *iccl_; }

 private:
  // Internal collective tags.
  static constexpr std::uint32_t kTagHandshake = 1;
  static constexpr std::uint32_t kTagReadyAck = 2;
  static constexpr std::uint32_t kTagShutdown = 3;
  /// Virtual-session control plane, carried on the infrastructure session:
  /// the master announces attaches/detaches tree-wide; every daemon binds
  /// (or unbinds) the session's fabric handlers on receipt. The attach ack
  /// is a gather on the *new* session's own (vsid, kTagReadyAck) stream.
  static constexpr std::uint32_t kTagVAttach = 4;
  static constexpr std::uint32_t kTagVDetach = 5;
  /// Default admission bound when the bootstrap argv names none.
  static constexpr std::uint32_t kDefaultMaxVSessions = 64;
  /// Commands take one tag per round from [kTagCommandBase, kUserBarrier):
  /// the ICCL's rendezvous state is keyed by tag, so two overlapping large
  /// commands must not share one. (Rendezvous rounds with distinct tags may
  /// complete out of issue order; commands are independent fleet actions.)
  static constexpr std::uint32_t kTagCommandBase = 0x0000'0100;
  static constexpr std::uint32_t kUserBarrier = 0x1000'0000;
  static constexpr std::uint32_t kUserGather = 0x2000'0000;
  static constexpr std::uint32_t kUserBcast = 0x3000'0000;
  static constexpr std::uint32_t kUserScatter = 0x4000'0000;

  /// Per-session collective bookkeeping: waiters, early-arrival buffers and
  /// the SPMD round counters. Session 0 (the infrastructure session) and
  /// every attached virtual session each own one.
  struct VSession {
    std::map<std::uint32_t, Delivered> bcast_waiters;
    std::map<std::uint32_t,
             std::function<void(std::vector<std::pair<std::uint32_t, Bytes>>)>>
        gather_waiters;
    std::map<std::uint32_t, std::function<void(const Bytes&)>>
        scatter_waiters;
    std::map<std::uint32_t, ByteSlice> pending_bcasts;
    std::map<std::uint32_t, ByteSlice> pending_scatters;
    std::uint32_t barrier_count = 0;
    std::uint32_t gather_count = 0;
    std::uint32_t bcast_count = 0;
    std::uint32_t scatter_count = 0;
  };

  void on_fabric_ready(Status st);
  void connect_fe();
  void on_fe_message(const cluster::ChannelPtr& ch, cluster::Message m);
  void maybe_run_handshake();
  void on_handshake_bcast(const ByteSlice& data);
  void on_internal_gather(
      std::uint32_t tag,
      std::vector<std::pair<std::uint32_t, Bytes>> entries);
  void dispatch_bcast(std::uint32_t tag, const ByteSlice& data);
  // --- virtual-session plumbing -------------------------------------------
  /// Master: FE asked for a virtual attach; runs admission control and, on
  /// accept, announces the session tree-wide.
  void handle_virtual_attach(std::uint32_t vsid);
  /// Every daemon: create + bind (or unbind + destroy) the session state.
  void vsession_open(std::uint32_t vsid);
  void vsession_close(std::uint32_t vsid);
  void send_virtual_ready(std::uint32_t vsid, bool ok, std::string error,
                          std::uint32_t ndaemons);
  void dispatch_vs_bcast(std::uint32_t vsid, std::uint32_t tag,
                         const ByteSlice& data);
  void dispatch_vs_scatter(std::uint32_t vsid, std::uint32_t tag,
                           const ByteSlice& data);
  void on_vs_gather(std::uint32_t vsid, std::uint32_t tag,
                    std::vector<std::pair<std::uint32_t, Bytes>> entries);
  [[nodiscard]] VSession* vsession(std::uint32_t vsid);
  void fail(Status st);
  [[nodiscard]] std::string mark_prefix() const {
    return cls_ == MsgClass::FeBe ? "be_" : "mw_";
  }

  cluster::Process& self_;
  MsgClass cls_;
  Callbacks cbs_;
  std::unique_ptr<Iccl> iccl_;
  std::string fe_host_;
  cluster::Port fe_port_ = 0;
  cluster::ChannelPtr fe_channel_;  ///< master only
  Rpdtab proctable_;
  ByteSlice usrdata_;
  Bytes ready_usr_;
  bool fabric_ready_ = false;
  bool handshake_buffered_ = false;
  Bytes buffered_rpdtab_;
  Bytes buffered_usr_;
  bool handshake_done_ = false;
  bool failed_ = false;
  // Trace spans (kNoSpan when no tracer attached): the daemon's bootstrap
  // span (parented on the launcher's "spawn:<session>:<host>" anchor) and
  // the master's handshake-collective span (t_collective_begin..end).
  obs::SpanId span_ = obs::kNoSpan;
  obs::SpanId collective_span_ = obs::kNoSpan;

  /// Per-session collective state: session 0 (always present after init)
  /// plus one entry per attached virtual session. SPMD collectives are
  /// matched by per-primitive counters, but the fabric may deliver a
  /// round's payload before this rank has issued the matching call (the
  /// rendezvous chunk pipeline can overtake the eager staggered
  /// barrier-release wave at high fan-out); each session's early arrivals
  /// park in its own pending buffers until the call registers its waiter.
  std::map<std::uint32_t, VSession> sessions_;
  std::uint32_t command_count_ = 0;
};

}  // namespace lmon::core
