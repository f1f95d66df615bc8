// fe_api.hpp - the LaunchMON Front-End API (paper §3.2).
//
// The FE runtime lives inside a tool front-end process and provides the
// seven capabilities the paper derives for FE APIs:
//   1. launch or attach to an RM process        -> launch_and_spawn /
//                                                  attach_and_spawn
//   2. co-locate back-end daemons               -> same calls (combined "by
//                                                  design": the paper keeps
//                                                  attachAndSpawn and
//                                                  launchAndSpawn fused)
//   3. launch middleware daemons                -> launch_mw_daemons
//   4. fetch data such as the RPDTAB            -> proctable()
//   5. transfer tool data FE<->daemons          -> piggybacked handshake
//                                                  payloads + send_usrdata_*
//   6. control a job or daemons                 -> detach / kill
//   7. bind commands to a job/daemon group      -> the session handle every
//                                                  call takes
//
// Persistent multiplexed service: a session is split into two halves. The
// *infrastructure* half (engine, daemon tree, fabric channels, cached
// RPDTAB/TunedConfig, port block) is a persistent resource created by one
// bootstrapping session; the *virtual* half (tag namespace, completion
// callbacks, trace span, tool binding) is cheap per-session state. Further
// sessions can attach to an existing tree through SpawnConfig::attach_to
// (an InfraHandle) in O(1) — one LMONP round trip plus one tree broadcast/
// gather — instead of re-launching engine + daemons.
//
// All operations are asynchronous (completion callbacks) because the tool
// front end is an event-driven simulated process; the real library's
// blocking calls map 1:1 onto these.
//
// Sessions record their spans and the e0..e11 marks into whatever Tracer is
// attached to the Machine; the Machine's owner attaches and exports it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "cluster/process.hpp"
#include "comm/launch_strategy.hpp"
#include "comm/topology.hpp"
#include "core/auto_tune.hpp"
#include "core/lmonp.hpp"
#include "core/rpdtab.hpp"
#include "obs/trace.hpp"
#include "rm/types.hpp"

namespace lmon::core {

/// Opaque handle naming a persistent daemon tree: the infrastructure half
/// of a Ready session. Obtain one with FrontEnd::infra_of() and pass it in
/// SpawnConfig::attach_to to multiplex a new virtual session onto that tree
/// instead of bootstrapping a fresh one.
struct InfraHandle {
  int owner_sid = -1;  ///< session that bootstrapped (and owns) the tree
  [[nodiscard]] bool valid() const noexcept { return owner_sid >= 0; }
};

class FrontEnd {
 public:
  /// How daemons should be spawned and what rides along.
  struct SpawnConfig {
    std::string daemon_exe;
    std::vector<std::string> daemon_args;
    /// Bootstrap-fabric tree shape. Unset (nullopt, the default) lets the
    /// engine's auto-tuner pick the kind and fan-out from the PerfModel;
    /// KAry with arity 0 uses the platform's RM fan-out; Binomial/Flat
    /// ignore arity.
    std::optional<comm::TopologySpec> topology;
    /// How the daemons get onto the nodes: unset (default) lets the
    /// auto-tuner choose (it never picks a strategy whose model predicts
    /// failure); explicit values force the RM's scalable bulk launch or one
    /// of the paper's §2 ad hoc rsh baselines.
    std::optional<comm::LaunchStrategyKind> launch_strategy;
    /// ICCL eager->rendezvous switch: auto (default, model-driven via
    /// PerfModel::collective_crossover on the tuned fabric),
    /// platform-default, always-eager, always-rndv, or an explicit byte
    /// count (Mode::Bytes; UINT32_MAX pins eager, 1 pins rendezvous).
    RndvSetting rndv;
    /// Platform calibration profile consulted by the engine's auto-tuner
    /// ("atlas", "thunder", "zeus", "bluegene" - see
    /// cluster::CostModelRegistry). Empty = the machine's own cost model.
    std::string platform_profile;
    /// Optional key=value calibration file overlaid on the profile
    /// (engine-side, rejected with line numbers on malformed input).
    std::string calibration_file;
    /// Self-healing daemon trees: daemons survive comm-daemon death by
    /// reparenting orphaned subtrees onto the nearest live ancestor and
    /// replaying in-flight collective state (docs/ARCHITECTURE.md
    /// "Self-healing trees"). Off by default: the historical drop-the-
    /// subtree semantics stay bit-identical for non-healing sessions.
    bool heal = false;
    /// Orphan-reattach grace window in milliseconds (how long an adopter
    /// suspends a dead child's collective stake waiting for its orphans);
    /// 0 = the ICCL default.
    std::uint32_t heal_grace_ms = 0;
    /// Persistent multiplexed service: when valid, this operation attaches
    /// a *virtual* session to the named tree (O(1): no engine, no RM, no
    /// daemon spawn) instead of bootstrapping. The daemon master enforces
    /// the tree's admission bound and rejects cleanly beyond it. Every
    /// other spawn knob above is ignored on this path.
    InfraHandle attach_to;
    /// Virtual-session admission bound advertised to the daemon tree this
    /// session bootstraps (--lmon-max-sessions); 0 = the daemons' default.
    std::uint32_t max_tree_sessions = 0;
    /// Tool data piggybacked on the FE->master handshake (paper §3.2:
    /// "enables piggybacking of the tool's data with the LaunchMON front
    /// end's handshaking exchanges").
    Bytes fe_to_be_data;
    /// Ablation knob: when false the tool data travels in a separate
    /// UsrData round trip after Ready instead of piggybacking.
    bool piggyback = true;
    /// The paper's LMON_fe_regPackForFeToBe: when set, invoked at
    /// handshake time (after the RPDTAB is known) to produce the
    /// piggybacked tool data; overrides fe_to_be_data. STAT uses this to
    /// pack a TBON topology built over the proctable's hosts.
    std::function<Bytes()> fe_data_provider;
  };

  using Done = std::function<void(Status)>;
  using UsrDataHandler = std::function<void(const Bytes&)>;

  enum class SessionState {
    Idle,
    EngineStarting,
    Spawning,
    Handshaking,
    Ready,
    Failed,
    Torn,
  };

  /// Default bound on concurrently existing session descriptors.
  static constexpr int kDefaultMaxSessions = 64;

  /// `max_sessions` bounds the session table (create_session rejects with
  /// Enomem beyond it). Virtual sessions count against it too, but only
  /// bootstrapping sessions consume one of the 64 per-FE port blocks, so a
  /// bound above 64 is usable when the surplus multiplexes existing trees.
  explicit FrontEnd(cluster::Process& self,
                    int max_sessions = kDefaultMaxSessions);

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds the FE's LMONP listening port. Call once before any session.
  Status init();
  [[nodiscard]] cluster::Port port() const noexcept { return port_; }

  /// Creates a session descriptor (LMON_fe_createSession). Ids are reused:
  /// the lowest id freed by destroy_session() is handed out first.
  cluster::Result<int> create_session();

  /// Frees a session descriptor (LMON_fe_destroySession). The session must
  /// be Idle, Failed or Torn - tear a live session down with detach()/
  /// kill() first. Destroying a tree owner releases its port block and
  /// unregisters the infrastructure.
  Status destroy_session(int sid);

  /// Launches a new job under tool control and co-locates daemons with it
  /// (LMON_fe_launchAndSpawnDaemons).
  void launch_and_spawn(int sid, const rm::JobSpec& job, SpawnConfig cfg,
                        Done done);

  /// Attaches to a running job via its RM launcher pid and co-locates
  /// daemons (LMON_fe_attachAndSpawnDaemons).
  void attach_and_spawn(int sid, cluster::Pid launcher_pid, SpawnConfig cfg,
                        Done done);

  /// Launches `nnodes` middleware daemons onto a fresh allocation
  /// (LMON_fe_launchMwDaemons). Requires a session whose engine is up.
  void launch_mw_daemons(int sid, std::uint32_t nnodes, SpawnConfig cfg,
                         Done done);

  // --- persistent multiplexed service ----------------------------------------
  /// Handle of the daemon tree `sid` is bound to (invalid if none). Pass to
  /// SpawnConfig::attach_to on another session to share the tree.
  [[nodiscard]] InfraHandle infra_of(int sid) const;
  /// Virtual-session id of `sid` on its tree (0 = bootstrapping owner).
  [[nodiscard]] std::uint32_t vsid_of(int sid) const;
  /// Number of sessions (owner + virtual) currently bound to `sid`'s tree.
  [[nodiscard]] std::size_t tree_session_count(int sid) const;

  // --- session data -----------------------------------------------------------
  [[nodiscard]] SessionState state(int sid) const;
  [[nodiscard]] const Rpdtab* proctable(int sid) const;
  [[nodiscard]] const Rpdtab* daemon_table(int sid) const;
  [[nodiscard]] const Rpdtab* mw_table(int sid) const;
  /// Tool data the BE master piggybacked on Ready.
  [[nodiscard]] const Bytes* ready_usrdata(int sid) const;
  /// The configuration the engine's auto-tuner resolved for this session
  /// (strategy/topology/threshold plus the model evidence), or nullptr
  /// before DaemonsSpawned arrives. Virtual sessions see the shared tree's
  /// cached record - the tuner does not run again on attach.
  [[nodiscard]] const TunedConfig* tuned_config(int sid) const;

  // --- tool data transfer ---------------------------------------------------------
  Status send_usrdata_be(int sid, Bytes data);
  Status send_usrdata_mw(int sid, Bytes data);
  void set_be_usrdata_handler(int sid, UsrDataHandler h);
  void set_mw_usrdata_handler(int sid, UsrDataHandler h);

  // --- control ---------------------------------------------------------------------
  /// Detach: daemons torn down, job left running (LMON_fe_detach). For a
  /// virtual session this closes only the virtual stream; the tree stays.
  void detach(int sid, Done done);
  /// Kill: daemons and job torn down (LMON_fe_kill).
  void kill(int sid, Done done);

  /// Ports used by a session (exposed for tests). Virtual sessions report
  /// their tree's fabric port.
  [[nodiscard]] cluster::Port fabric_port_of(int sid) const;

 private:
  /// The persistent half of a session: one bootstrapped engine + daemon
  /// tree, shared (via shared_ptr) by the owning session and every virtual
  /// session attached to it. Cached RPDTAB / daemon table / TunedConfig
  /// live here so attaching sessions reuse them without refetching.
  struct Infra {
    int owner_sid = -1;
    std::string cookie;
    cluster::Pid engine_pid = cluster::kInvalidPid;
    cluster::ChannelPtr engine_ch;
    cluster::ChannelPtr be_ch;
    cluster::ChannelPtr mw_ch;
    Rpdtab proctable;
    Rpdtab daemon_table;
    Rpdtab mw_table;
    TunedConfig tuned;
    bool have_tuned = false;
    bool have_proctable = false;
    bool daemons_spawned = false;
    bool mw_spawned = false;  ///< MwSpawned filled mw_table (this launch)
    /// The MW master dialed in before MwSpawned: its HandshakeInit waits,
    /// because the tool's data provider needs the MW table.
    bool mw_handshake_held = false;
    cluster::Port fabric_port = 0;
    cluster::Port report_port = 0;
    cluster::Port mw_fabric_port = 0;
    int port_slot = -1;  ///< index into the FE's 64-slot port block
    std::uint32_t next_vsid = 1;
    /// Attached virtual sessions: vsid -> FE session id (for routing
    /// VirtualReady and for teardown fan-out).
    std::map<std::uint32_t, int> vsids;
  };
  using InfraPtr = std::shared_ptr<Infra>;

  /// The virtual half: callbacks, tool binding and trace identity.
  struct Session {
    int id = -1;
    std::string cookie;  ///< set on bootstrapping sessions only
    SessionState state = SessionState::Idle;
    SpawnConfig cfg;
    SpawnConfig mw_cfg;
    InfraPtr infra;          ///< null until an operation binds a tree
    std::uint32_t vsid = 0;  ///< 0 = bootstrapping owner of `infra`
    Bytes ready_usr;
    Done done;
    Done mw_done;
    Done teardown_done;
    UsrDataHandler be_usr_handler;
    UsrDataHandler mw_usr_handler;
    /// Root span of the whole operation (e0..e11); anchored under
    /// "session:<cookie>" so the engine and daemons can parent onto it.
    obs::SpanId span = obs::kNoSpan;
  };

  void start_operation(int sid, bool attach, const rm::JobSpec* job,
                       cluster::Pid target, SpawnConfig cfg, Done done);
  /// O(1) attach of a virtual session onto an existing tree.
  void start_virtual_attach(Session& s, Done done);
  void on_accept(cluster::ChannelPtr ch);
  void bind_engine_channel(Session& s, const cluster::ChannelPtr& ch);
  void bind_daemon_channel(Session& s, const cluster::ChannelPtr& ch,
                           MsgClass cls);
  /// Sends the daemons' HandshakeInit: RPDTAB plus (optionally
  /// piggybacked) tool data.
  void send_handshake_init(Session& s, const cluster::ChannelPtr& ch,
                           MsgClass cls);
  void on_engine_message(Session& s, const LmonpMessage& msg);
  void on_daemon_message(Session& s, MsgClass cls, const LmonpMessage& msg);
  void on_virtual_ready(Infra& infra, const Bytes& payload);
  /// Marks every virtual session of `infra` Torn (tree going away).
  void tear_virtuals(Infra& infra);
  void finish(Session& s, Status st);
  void finish_mw(Session& s, Status st);
  Session* find(int sid);
  [[nodiscard]] const Session* find(int sid) const;
  Session* find_by_cookie(const std::string& cookie);

  cluster::Process& self_;
  cluster::Port port_ = 0;
  std::map<int, Session> sessions_;
  int next_session_ = 0;
  std::set<int> free_ids_;  ///< ids released by destroy_session
  int max_sessions_ = kDefaultMaxSessions;
  std::set<int> free_port_slots_;  ///< unassigned per-FE port-block slots
  /// Fixed per-FE port-block geometry: 64 slots regardless of the session
  /// bound, so several FEs' blocks never overlap (see create_session).
  static constexpr int kPortSlots = 64;
};

}  // namespace lmon::core
