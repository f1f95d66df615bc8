// iccl.hpp - the Internal Collective Communication Layer (paper §3.3).
//
// "We leverage native communication subsystems that the RM sets up if
//  possible; our layered approach encapsulates interactions with native
//  communication subsystems in the Internal Collective Communication Layer
//  (ICCL). ICCL maps native interfaces to our back-end collective calls;
//  hence it is the only layer with significant platform dependencies."
//
// Here the "RM-provided fabric" is the bootstrap information slurmd hands
// every tool daemon on its argv (rank, size, fanout, per-session port, full
// host list). ICCL wires a k-ary tree over it and offers exactly the
// minimal collectives the paper commits to: barrier, broadcast, gather,
// scatter - deliberately *not* a general TBON (tools needing more should
// stack MRNet on top, which src/tbon does).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cluster/process.hpp"
#include "comm/bootstrap.hpp"
#include "comm/topology.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "core/stream_key.hpp"
#include "obs/trace.hpp"

namespace lmon::core {

class Iccl {
 public:
  /// The fabric bootstrap parameters are exactly what every launch strategy
  /// passes on the daemon argv; comm/bootstrap.hpp owns the wire form.
  using Params = comm::BootstrapParams;

  /// Fabric frame kinds (public so protocol tests can assert on the wire
  /// sequence through set_keyed_frame_tap()).
  enum class Kind : std::uint8_t {
    Register = 1,  ///< child -> parent: {rank}
    SetupUp,       ///< child -> parent: subtree fully wired
    Bcast,         ///< parent -> child: {tag, data} (eager: full payload)
    GatherUp,      ///< child -> parent: {tag, [(rank, data)...]}
    Scatter,       ///< parent -> child: {tag, [(rank, data)...]}
    RndvRts,       ///< parent -> child: {tag, nchunks, total bytes}
    RndvCts,       ///< child -> parent: {tag} (clear to stream)
    RndvChunk,     ///< parent -> child: {tag, seq, chunk bytes}
    // Upstream (gather) rendezvous: the mirror of RndvRts/Cts/Chunk, but
    // per *origin rank* instead of per chunk sequence - a parent cut-through
    // relays a child's chunks without assembling them, so per-origin order
    // is preserved by channel FIFO + in-order relay, and no seq is needed.
    GatherRts,    ///< child -> parent: {tag, [(origin, total bytes)...]}
    GatherCts,    ///< parent -> child: {tag} (clear to stream upward)
    GatherChunk,  ///< child -> parent: {tag, origin, chunk bytes}
    GatherDrop,   ///< child -> parent: {tag, [(origin, {})...]} origin died
    // Self-healing recovery protocol (heal mode only; see docs/ARCHITECTURE
    // "Self-healing trees"). An orphan that lost its parent climbs its
    // ancestor chain, Registers with the first survivor and follows up with
    // Reattach (climb path, delivered-broadcast ring, open receive offsets)
    // plus re-announces of its in-flight gather rounds; the adopter replays
    // missed broadcast bytes and answers gather re-announces with per-origin
    // resume offsets.
    Reattach,      ///< orphan -> adopter: {via-dead, delivered tags, recvs}
    GatherResume,  ///< adopter -> orphan: {tag, [(origin, u32 offset)...]}
    GatherDone,    ///< root -> down: {tag} delivered; drop replay state
    Leave,         ///< child -> parent: graceful departure (elastic shrink)
  };

  /// Handlers receive the *within-session* tag; the session id is implied
  /// by which bind_session() handler set fired.
  using BcastHandler = std::function<void(std::uint32_t tag, const Bytes&)>;
  /// Root-side gather completion: contributions sorted by rank.
  using GatherHandler = std::function<void(
      std::uint32_t tag, std::vector<std::pair<std::uint32_t, Bytes>>)>;
  using ScatterHandler = std::function<void(std::uint32_t tag, const Bytes&)>;

  /// Handler set for one session multiplexed over this fabric (session 0 is
  /// the infrastructure session; nonzero ids are virtual sessions).
  struct SessionHandlers {
    BcastHandler on_bcast;
    GatherHandler on_gather;
    ScatterHandler on_scatter;
  };

  Iccl(cluster::Process& self, Params params);

  Iccl(const Iccl&) = delete;
  Iccl& operator=(const Iccl&) = delete;

  [[nodiscard]] std::uint32_t rank() const noexcept { return params_.rank; }
  [[nodiscard]] std::uint32_t size() const noexcept { return params_.size; }
  [[nodiscard]] bool is_root() const noexcept { return params_.rank == 0; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// Wires this node into the fabric tree: listens on the session port,
  /// connects to the parent daemon (with refused-connection retries - the
  /// parent may still be starting). `subtree_ready` fires once this node's
  /// *entire subtree* is connected; at the root that means the whole fabric
  /// is up (the paper's e9).
  void start(std::function<void(Status)> subtree_ready);

  // --- collectives -------------------------------------------------------
  // Every round is keyed by a (session, tag) StreamKey; a bare u32 tag
  // converts implicitly to session 0 (the infrastructure session), so the
  // entire pre-multiplex call surface is unchanged. Rounds in different
  // sessions share the fabric but never share state: maps, rendezvous
  // chunk streams and heal replay rings are all StreamKey-keyed.

  /// Root only: delivers (key, data) to every daemon's bcast handler,
  /// including the root's own.
  void broadcast(StreamKey key, Bytes data);

  /// Gather contribution; every rank must call once per round. The root's
  /// gather handler fires when all `size` contributions arrived.
  void contribute(StreamKey key, Bytes data);

  /// Root only: parts[i] goes to rank i's scatter handler.
  void scatter(StreamKey key, std::vector<Bytes> parts);

  /// Elastic shrink (heal mode): announces a graceful departure to the
  /// parent (so it is accounted as a leave, not a death) and exits shortly
  /// after. Children and in-flight collective state heal through the normal
  /// reparenting path; this node's own gather contributions for open rounds
  /// are the only payloads that depart with it.
  void leave();

  /// Routes rounds keyed to `session` to this handler set (handlers see the
  /// within-session tag). Rebinding replaces; rounds for an unbound session,
  /// or of a kind the bound set has no handler for, are dropped at delivery
  /// (counted in iccl.mux.unbound_drops), never cross-delivered.
  void bind_session(std::uint32_t session, SessionHandlers handlers) {
    session_handlers_[session] = std::move(handlers);
  }
  void unbind_session(std::uint32_t session) {
    session_handlers_.erase(session);
  }

  /// Test-only tap: observes every decoded inbound fabric frame (before the
  /// handling cost is charged) with its full StreamKey. `bytes` is the
  /// first entry's payload size.
  using FrameTap = std::function<void(Kind kind, StreamKey key,
                                      std::uint32_t src, std::size_t bytes)>;
  void set_keyed_frame_tap(FrameTap tap) { frame_tap_ = std::move(tap); }

  /// Effective eager->rendezvous switch threshold (payload bytes): the
  /// session option when set, else the platform default.
  [[nodiscard]] std::uint32_t rndv_threshold() const noexcept {
    return rndv_threshold_;
  }

  /// The fabric tree this daemon is wired into.
  [[nodiscard]] const comm::Topology& topology() const noexcept {
    return topo_;
  }

  /// Self-healing enabled for this session (--lmon-heal=1).
  [[nodiscard]] bool heal_enabled() const noexcept { return heal_; }
  /// Rank this node is currently linked up to (the topology parent until a
  /// reparent moves it; meaningless at the root). Tests assert reparented
  /// topology invariants through this.
  [[nodiscard]] std::uint32_t parent_rank() const noexcept {
    return parent_rank_;
  }
  /// Ranks with live child links (topology children plus adopted orphans).
  [[nodiscard]] std::vector<std::uint32_t> live_children() const {
    std::vector<std::uint32_t> out;
    out.reserve(children_.size());
    for (const auto& [rank, ch] : children_) out.push_back(rank);
    return out;
  }
  /// True when no recovery is in progress here (no open adoption slots, not
  /// mid-climb).
  [[nodiscard]] bool heal_idle() const noexcept {
    return heal_slots_.empty() && !reparenting_;
  }

 private:
  /// (rank, payload) frame entries; every payload is a view, not a copy.
  using Entries = std::vector<std::pair<std::uint32_t, ByteSlice>>;

  /// One gather round (keyed by tag). Small rounds run eager: each node
  /// waits for every child's whole-subtree GatherUp frame, appends its own
  /// contribution and forwards one combined frame. Rounds whose *subtree
  /// total* reaches the rendezvous threshold announce per-origin sizes
  /// upward (GatherRts), wait for clearance (GatherCts - the upstream flow
  /// control: a slow parent simply withholds the CTS and its children stay
  /// quiet instead of burying it in buffered payload), then stream 64 KiB
  /// GatherChunk frames. Interior nodes cut-through relay each chunk as it
  /// arrives - they never assemble a child's contribution, so per-level
  /// memory stays O(chunk), not O(payload).
  struct GatherState {
    bool own_done = false;
    /// Children whose announce (eager GatherUp or GatherRts) is still
    /// outstanding. A set (not a count) so a dying child can be forgiven.
    std::set<std::uint32_t> children_pending;
    /// Entries held whole on this node: own contribution + eager children.
    Entries acc;
    // --- rendezvous upstream state ---------------------------------------
    bool announced = false;  ///< GatherRts sent up (non-root only)
    bool streaming = false;  ///< own GatherCts processed; chunks may flow
    std::set<std::uint32_t> rndv_children;  ///< children that sent RTS
    /// Announced origin -> total bytes (origins owned by rndv children).
    std::map<std::uint32_t, std::uint32_t> origin_bytes;
    /// Rendezvous child -> the origins its RTS announced (for drops).
    std::map<std::uint32_t, std::set<std::uint32_t>> child_origins;
    std::map<std::uint32_t, Bytes> assembling;  ///< root only: per origin
    /// Relay only: bytes of each announced origin not yet relayed.
    std::map<std::uint32_t, std::uint32_t> origin_remaining;
    std::set<std::uint32_t> dropped;  ///< origins lost mid-stream
    /// Chunk send queue through the serialized cursor: views of the origin's
    /// contribution. Entries release their buffer once scheduled (the posted
    /// send keeps its own ref).
    Entries outq;
    std::size_t next_out = 0;
    sim::Time cursor = 0;  ///< serialized send occupancy (absolute time)
    obs::SpanId span = obs::kNoSpan;
    // --- self-heal replay state (heal mode only) -------------------------
    /// Per-origin views of everything that entered this round here (own
    /// contribution, eager child entries, relayed chunks). Heal trades
    /// O(payload) memory per retained round for the ability to re-announce
    /// and resume after a reparent; bounded by the retired-round ring.
    std::map<std::uint32_t, SliceJoin> retained;
    bool retired = false;     ///< forwarded/delivered; kept for heal replay
    bool eager_sent = false;  ///< retired via an eager GatherUp forward
    /// Orphaned mid-stream: chunks must not race ahead of the resume
    /// offsets the new parent will dictate; gather_flush holds until the
    /// GatherResume arrives.
    bool heal_hold = false;
    /// Dead children whose subtree stake is suspended pending orphan
    /// reattach (or the grace expiry). Non-empty blocks flush/delivery.
    std::set<std::uint32_t> healing;
    // --- multiplex fairness (root only) ----------------------------------
    /// Root clearance granted: this round's CTS chain may flow. Always true
    /// immediately when only one session is active; under contention at
    /// most one session holds cleared rounds at a time.
    bool cleared = false;
    /// Child ranks whose GatherRts arrived while another session held the
    /// clearance; flushed with a CTS when this round is cleared.
    std::vector<std::uint32_t> grant_waiters;
  };

  /// Sender side of one rendezvous broadcast round: RTS is out, chunks
  /// stream round-robin across the children once every CTS arrived. Relay
  /// nodes grow `ready` chunk-by-chunk as the payload trickles down; the
  /// root has every chunk ready up front.
  struct RndvSend {
    std::uint32_t nchunks = 0;
    std::uint32_t total = 0;
    std::set<std::uint32_t> cts_pending;  ///< child ranks yet to CTS
    bool streaming = false;               ///< all CTS in, chunks may flow
    std::uint32_t next_seq = 0;           ///< next chunk to schedule
    std::vector<ByteSlice> ready;  ///< chunk views of the payload, by seq
    sim::Time cursor = 0;  ///< serialized send occupancy (absolute time)
    obs::SpanId span = obs::kNoSpan;  ///< RTS fan-out .. last chunk out
  };

  /// Receiver side: joins chunks in sequence order (per-channel FIFO
  /// guarantees ordering) and delivers once complete. Every relay forwards
  /// the root's chunk views unchanged, so the join is normally the root's
  /// payload buffer itself and nothing is copied.
  struct RndvRecv {
    std::uint32_t nchunks = 0;
    std::uint32_t received = 0;
    SliceJoin payload;
    obs::SpanId span = obs::kNoSpan;  ///< RTS in .. payload assembled
  };

  void connect_parent(int attempts_left);
  void on_fabric_message(const cluster::ChannelPtr& ch, cluster::Message m);
  void handle_register(const cluster::ChannelPtr& ch, std::uint32_t rank);
  void handle_setup_up();
  void handle_bcast(StreamKey tag, ByteSlice payload);
  void handle_gather_up(StreamKey tag, std::uint32_t src, Entries entries);
  void handle_scatter(StreamKey tag, Entries entries);
  void maybe_subtree_ready();
  void flush_gather(StreamKey tag);
  // --- rendezvous gather (upstream data plane) ----------------------------
  /// Sum of all payload bytes this node's subtree contributes this round.
  [[nodiscard]] std::size_t gather_subtree_bytes(const GatherState& st) const;
  /// Announce per-origin sizes upward (GatherRts); the round then waits for
  /// the parent's GatherCts before any payload moves.
  void gather_announce(StreamKey tag, GatherState& st);
  void handle_gather_rts(StreamKey tag, std::uint32_t src,
                         const Entries& entries);
  void handle_gather_cts(StreamKey tag);
  /// The CTS body (clear children, queue held entries): shared by the
  /// normal clearance and the heal resume path.
  void gather_begin_streaming(StreamKey tag, GatherState& st);
  void handle_gather_chunk(StreamKey tag, std::uint32_t origin,
                           ByteSlice data);
  void handle_gather_drop(StreamKey tag, const Entries& entries);
  /// Streams every queued-but-unsent gather chunk through the cursor.
  void gather_flush(StreamKey tag, GatherState& st);
  /// Root: delivers the round once every announced origin is complete or
  /// dropped. No-op elsewhere or while contributions are outstanding.
  void gather_check_complete(StreamKey tag);
  /// Relay: retires the round once all announced bytes were forwarded.
  void gather_relay_maybe_done(StreamKey tag);
  /// Marks an origin as lost mid-round (propagates GatherDrop upward).
  void gather_drop_origin(StreamKey tag, GatherState& st,
                          std::uint32_t origin);
  /// Forgets a dead child's stake in one gather round: stops waiting for its
  /// announce and drops every announced origin whose payload never finished.
  /// Returns true if the round referenced the child at all.
  bool gather_forget_child(StreamKey tag, GatherState& st,
                           std::uint32_t child);
  void send_up(cluster::Message m);
  void send_to_child(std::uint32_t child_rank, cluster::Message m);
  GatherState& gather_state(StreamKey tag);

  // --- multiplexed delivery / fairness ------------------------------------
  /// Route a completed round to the owning session's handler set. Rounds
  /// for an unbound session are dropped.
  /// Payloads that are a whole buffer are handed out by reference; a
  /// partial view is copied once.
  void deliver_bcast(StreamKey tag, const ByteSlice& data);
  void deliver_gather(StreamKey tag,
                      std::vector<std::pair<std::uint32_t, Bytes>> entries);
  void deliver_scatter(StreamKey tag, const ByteSlice& data);
  /// Bumps `iccl.<name>` and, for nonzero sessions, the per-session twin
  /// `iccl.s<session>.<name>` so shared-tree metrics stay attributable.
  /// Builds no name while metrics are detached.
  void count_mux(StreamKey tag, const char* name, double v = 1.0);
  /// Root: may a new round for `session` enter the cleared set? True unless
  /// some *other* session currently holds cleared open rounds.
  [[nodiscard]] bool mux_can_clear(std::uint32_t session) const;
  /// Root: marks the round cleared and accounts the session as active.
  void mux_mark_cleared(StreamKey tag, GatherState& st);
  /// Root delivery of a cleared round: release the session's hold and
  /// round-robin the clearance to the next session with deferred waiters.
  void mux_release(StreamKey tag);

  // --- self-healing (heal mode only) --------------------------------------
  /// Parent link died post-ready: climb the ancestor chain for a survivor.
  void begin_reparent();
  void try_reattach(std::uint32_t target, int attempts_left);
  void adopt_parent(std::uint32_t target, cluster::ChannelPtr ch);
  /// Re-announce in-flight gather rounds to the new parent (sent right
  /// after Reattach on the same FIFO channel, so the adopter processes the
  /// claim before any re-announce).
  void heal_send_reannounces();
  /// Adopter side: claim bookkeeping, origin-ownership transfer, broadcast
  /// replay for a freshly reattached orphan. Takes the channel because the
  /// orphan joins children_ here (not via Register): the link must carry no
  /// live-stream traffic before the replay runs, or catch-up chunks would
  /// arrive out of order.
  void handle_reattach(const cluster::ChannelPtr& ch, std::uint32_t src,
                       const ByteSlice& blob);
  void handle_gather_resume(StreamKey tag, const Entries& entries);
  void handle_gather_done(StreamKey tag);
  void handle_leave(std::uint32_t src);
  /// Adopter side: open a heal slot for a dead child and suspend its stake
  /// in every open gather round until orphans claim it or the grace expires.
  void heal_child_lost(std::uint32_t lost);
  /// Resolves the slot early once every live rank under the dead child is
  /// claimed by a reattached orphan (or reported dead on a climb path).
  void heal_check_slot(std::uint32_t dead);
  void heal_resolve_slot(std::uint32_t dead, bool expired);
  void heal_record_bcast(StreamKey tag, const ByteSlice& payload);
  /// Replays broadcast state a reattached orphan missed: catch-up chunks
  /// for rounds it was mid-assembly on, full replays for rounds it never
  /// saw (it re-fans-out to its own subtree natively).
  void heal_replay_bcasts(
      std::uint32_t orphan,
      const std::map<StreamKey,
                     std::pair<std::uint32_t, std::uint32_t>>& open_recvs,
      const std::set<StreamKey>& delivered);
  /// Retires a finished round instead of erasing it (replay may need it
  /// until the root's GatherDone); bounded by the retired-round ring.
  void heal_retire_gather(StreamKey tag, GatherState& st, bool eager);

  /// This daemon's bootstrap span (the "daemon:<session>:<rank>" anchor),
  /// so collective spans nest under the right parent in exports.
  [[nodiscard]] obs::SpanId trace_parent(obs::Tracer& tracer) const;

  // --- eager/rendezvous protocol switch ----------------------------------
  [[nodiscard]] bool use_rendezvous(std::size_t payload_bytes) const;
  /// Serialized per-KB copy charge (iccl_eager_copy_per_kb scaled to size).
  [[nodiscard]] sim::Time eager_copy_cost(std::size_t bytes) const;
  /// Eager fan-out: one full-payload frame per child, serialized by
  /// (msg-handle + payload-copy) quanta in rank order. Every frame views
  /// the same payload buffer.
  void eager_fanout(StreamKey tag, const ByteSlice& payload);
  /// Opens a rendezvous round toward this node's children (RTS fan-out).
  RndvSend& rndv_open_send(StreamKey tag, std::uint32_t nchunks,
                           std::uint32_t total);
  void handle_rndv_rts(StreamKey tag, std::uint32_t nchunks,
                       std::uint32_t total);
  void handle_rndv_cts(StreamKey tag, std::uint32_t src);
  void handle_rndv_chunk(StreamKey tag, std::uint32_t seq, ByteSlice data);
  /// Streams every ready-but-unsent chunk through the serialized cursor.
  void rndv_flush(StreamKey tag, RndvSend& st);
  /// A child link died: drop it from the fan-out and unblock any rendezvous
  /// round still waiting on its CTS.
  void on_child_lost(const cluster::ChannelPtr& ch);

  cluster::Process& self_;
  Params params_;
  comm::Topology topo_;
  std::uint32_t rndv_threshold_ = 0;  ///< resolved (bytes); never 0
  cluster::ChannelPtr parent_;
  std::map<std::uint32_t, cluster::ChannelPtr> children_;  ///< rank -> link
  std::vector<std::uint32_t> expected_children_;
  int setups_pending_ = 0;  ///< SetupUp messages still expected
  bool parent_linked_ = false;
  bool ready_fired_ = false;
  std::function<void(Status)> subtree_ready_;
  std::map<std::uint32_t, SessionHandlers> session_handlers_;
  FrameTap frame_tap_;
  std::map<StreamKey, GatherState> gathers_;
  std::map<StreamKey, RndvSend> rndv_sends_;  ///< by stream key
  std::map<StreamKey, RndvRecv> rndv_recvs_;  ///< by stream key

  // --- self-heal state -----------------------------------------------------
  bool heal_ = false;
  sim::Time heal_grace_ = 0;    ///< orphan-reattach wait before retraction
  std::uint32_t parent_rank_ = 0;  ///< current upstream rank (see accessor)
  bool reparenting_ = false;    ///< climb in progress
  bool left_ = false;           ///< leave() called; suppress healing
  std::vector<std::uint32_t> heal_via_;  ///< dead ancestors on this climb
  obs::SpanId heal_span_ = obs::kNoSpan;
  /// Delivered-broadcast ring: tag -> payload, insertion-ordered, capped at
  /// kHealHistory. Doubles as the duplicate-delivery guard (a replayed
  /// round whose tag is here is ignored entirely) and as the replay source
  /// for orphans that missed rounds while reattaching. Safe at equal cap on
  /// every node: a descendant's delivery order is a FIFO subsequence of
  /// every ancestor's, so an orphan can never have evicted a tag its
  /// adopter still holds.
  std::map<StreamKey, ByteSlice> bcast_history_;
  std::vector<StreamKey> bcast_history_order_;
  /// Retired gather rounds kept for replay, oldest-first (evicted FIFO).
  std::vector<StreamKey> retired_gather_order_;
  /// One adoption slot per dead child: which orphan ranks reattached here
  /// and which ranks were reported dead on their climb paths.
  struct HealSlot {
    std::set<std::uint32_t> claimed;
    std::set<std::uint32_t> reported_dead;
  };
  std::map<std::uint32_t, HealSlot> heal_slots_;  ///< dead child -> slot

  // --- multiplex fairness state (root only) --------------------------------
  /// Session -> count of cleared-but-undelivered rendezvous gather rounds.
  std::map<std::uint32_t, int> mux_active_;
  /// Last session granted clearance from the waiter scan (round-robin seed).
  std::uint32_t mux_rr_last_ = 0;

  static constexpr int kConnectRetries = 80;
  static constexpr sim::Time kRetryDelay = sim::ms(3);
  static constexpr sim::Time kRetryDelayCap = sim::ms(200);
  /// Reattach targets have been up for the whole session; a refused
  /// connection after a few quick retries means the ancestor is dead too
  /// and the climb continues.
  static constexpr int kHealConnectRetries = 3;
  static constexpr std::size_t kHealHistory = 64;
  static constexpr sim::Time kHealGraceDefault = sim::ms(400);
};

}  // namespace lmon::core
