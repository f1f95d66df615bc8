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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cluster/process.hpp"
#include "comm/bootstrap.hpp"
#include "comm/topology.hpp"
#include "comm/tree_node.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "core/stream_key.hpp"
#include "obs/trace.hpp"

namespace lmon::core {

class Iccl : private comm::TreeNode::Hooks {
 public:
  /// The fabric bootstrap parameters are exactly what every launch strategy
  /// passes on the daemon argv; comm/bootstrap.hpp owns the wire form.
  using Params = comm::BootstrapParams;

  /// Fabric frame kinds (public so protocol tests can assert on the wire
  /// sequence through set_keyed_frame_tap()).
  ///
  /// A broadcast is one chunk stream per StreamKey. An eager round is the
  /// one-chunk case with implicit clearance: one Bcast frame per child. A
  /// rendezvous round announces itself (RndvRts), waits for every child's
  /// RndvCts and then streams RndvChunk frames. A gather is the same split
  /// upward over one per-origin table: GatherUp and GatherRts are the two
  /// encodings of a subtree's origin list (whole payloads, or sizes that
  /// the parent clears with GatherCts before GatherChunk frames flow).
  enum class Kind : std::uint8_t {
    Register = 1,  ///< child -> parent: {rank}
    SetupUp,       ///< child -> parent: subtree fully wired
    Bcast,         ///< parent -> child: {tag, seq 0, data} (whole payload)
    GatherUp,      ///< child -> parent: {tag, [(rank, data)...]}
    Scatter,       ///< parent -> child: {tag, [(rank, data)...]}
    RndvRts,       ///< parent -> child: {tag, nchunks > 0, total bytes}
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
    // missed broadcast bytes (an RndvRts alone for a round the orphan never
    // saw: its own RndvCts releases the chunks) and answers gather
    // re-announces with per-origin resume offsets.
    Reattach,      ///< orphan -> adopter: {via-dead, delivered tags, recvs}
    GatherResume,  ///< adopter -> orphan: {tag, [(origin, u32 offset)...]}
    GatherDone,    ///< root -> down: {tag} delivered; drop replay state
    Leave,         ///< child -> parent: graceful departure (elastic shrink)
  };

  /// Wire sizes of the frame codec, which PerfModel prices frames by. A
  /// frame header is the kind (u8) and the session, tag, src and entry
  /// count (u32 each); each entry adds its rank and payload length (u32
  /// each) ahead of the payload. An entry whose payload is one u32 total is
  /// an RndvRts's announce and a GatherRts origin record.
  static constexpr std::size_t kFrameHeaderBytes = 17;
  static constexpr std::size_t kEntryHeaderBytes = 8;
  static constexpr std::size_t kTotalEntryBytes =
      kEntryHeaderBytes + sizeof(std::uint32_t);

  /// Handlers receive the *within-session* tag; the session id is implied
  /// by which bind_session() handler set fired.
  ///
  /// Broadcast and scatter handlers receive a view of the payload as it
  /// arrived, usually of a buffer that every rank shares (the root's). A
  /// handler that keeps bytes past the call keeps the slice (or a sub() of
  /// it), which holds the buffer alive; it never needs to copy them.
  using BcastHandler =
      std::function<void(std::uint32_t tag, const ByteSlice&)>;
  /// Root-side gather completion: contributions sorted by rank.
  using GatherHandler = std::function<void(
      std::uint32_t tag, std::vector<std::pair<std::uint32_t, Bytes>>)>;
  using ScatterHandler =
      std::function<void(std::uint32_t tag, const ByteSlice&)>;

  /// Handler set for one session multiplexed over this fabric (session 0 is
  /// the infrastructure session; nonzero ids are virtual sessions).
  struct SessionHandlers {
    BcastHandler on_bcast;
    GatherHandler on_gather;
    ScatterHandler on_scatter;
  };

  /// How a daemon dials its fabric parent: exponential backoff up to a
  /// cap. The RM's bulk launch brings all daemons up near-simultaneously,
  /// but the ad hoc rsh strategies stagger daemon start times across
  /// *seconds* at scale, so a fixed short window would wrongly declare the
  /// parent dead while its subtree is still being rsh-launched. The capped
  /// budget (~15 s total) still bounds genuinely-dead-parent detection.
  static constexpr comm::DialPolicy kDial{80, sim::ms(3), sim::ms(200)};

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
  /// bootstrap threshold the engine's tuner resolved, else this machine's
  /// costs.
  [[nodiscard]] std::uint32_t rndv_threshold() const noexcept {
    return rndv_threshold_;
  }

  /// The fabric tree this daemon is wired into.
  [[nodiscard]] const comm::Topology& topology() const noexcept {
    return topo_;
  }

  /// Self-healing enabled for this session (--lmon-heal=1).
  [[nodiscard]] bool heal_enabled() const noexcept { return node_.heal(); }
  /// Rank this node is currently linked up to (the topology parent until a
  /// reparent moves it; meaningless at the root). Tests assert reparented
  /// topology invariants through this.
  [[nodiscard]] std::uint32_t parent_rank() const noexcept {
    return node_.parent_index();
  }
  /// Ranks with live child links (topology children plus adopted orphans).
  [[nodiscard]] std::vector<std::uint32_t> live_children() const {
    std::vector<std::uint32_t> out;
    out.reserve(node_.children().size());
    for (const auto& [rank, ch] : node_.children()) out.push_back(rank);
    return out;
  }
  /// True when no recovery is in progress here (no open adoption slots, not
  /// mid-climb).
  [[nodiscard]] bool heal_idle() const noexcept {
    return heal_slots_.empty() && !node_.climbing();
  }

 private:
  /// (rank, payload) frame entries; every payload is a view, not a copy.
  using Entries = std::vector<std::pair<std::uint32_t, ByteSlice>>;

  /// One origin of a gather round as this node sees it, whichever protocol
  /// brought it: an entry held whole (own contribution, an eager child's
  /// GatherUp) arrives complete; an origin a rendezvous child announced
  /// completes as its chunks arrive. "Complete" is got == total on every
  /// node, a drop counts as complete, and a heal resume restarts the origin
  /// at `got`.
  struct Origin {
    /// Who still owes the bytes: the child whose GatherRts announced the
    /// origin, or this rank for an entry held whole here (and for chunks of
    /// an origin nobody announced here, which the round does not wait for).
    std::uint32_t owner = 0;
    std::uint32_t total = 0;  ///< announced size (a whole entry: its size)
    std::uint32_t got = 0;    ///< bytes arrived here
    bool dropped = false;     ///< lost mid-round: complete, never delivered
    /// Views this node keeps: a whole entry until it goes up, and in heal
    /// mode every byte that entered here, for re-announce and resume.
    SliceJoin kept;
    Bytes copy;  ///< root only: the delivered bytes, reserved from the total
  };

  /// One gather round (keyed by tag). Small rounds run eager: each node
  /// waits for every child's whole-subtree GatherUp frame, adds its own
  /// contribution and forwards one combined frame. Rounds whose *subtree
  /// total* reaches the rendezvous threshold announce per-origin sizes
  /// upward (GatherRts), wait for clearance (GatherCts - the upstream flow
  /// control: a slow parent simply withholds the CTS and its children stay
  /// quiet instead of burying it in buffered payload), then stream 64 KiB
  /// GatherChunk frames. Interior nodes cut-through relay each chunk as it
  /// arrives - they never assemble a child's contribution, so per-level
  /// memory stays O(chunk), not O(payload). Both protocols, their heal
  /// re-announce and their resume read and write the one `origins` table.
  struct GatherState {
    bool own_done = false;
    /// Children whose announce (eager GatherUp or GatherRts) is still
    /// outstanding. A set (not a count) so a dying child can be forgiven.
    std::set<std::uint32_t> children_pending;
    std::map<std::uint32_t, Origin> origins;
    // --- rendezvous upstream state ---------------------------------------
    bool announced = false;  ///< GatherRts sent up (non-root only)
    bool streaming = false;  ///< own GatherCts processed; chunks may flow
    std::set<std::uint32_t> rndv_children;  ///< children that sent RTS
    /// Chunk send queue through the serialized cursor. Entries release their
    /// view once scheduled (the posted send keeps its own ref).
    Entries outq;
    std::size_t next_out = 0;
    sim::Time cursor = 0;  ///< serialized send occupancy (absolute time)
    obs::SpanId span = obs::kNoSpan;
    // --- self-heal replay state (heal mode only) -------------------------
    /// Forwarded (eager, or every announced byte relayed) or delivered; kept
    /// for heal replay until the root's GatherDone, bounded by the
    /// retired-round ring.
    bool retired = false;
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

  /// One broadcast round as a chunk stream toward this node's children.
  /// Chunks leave round-robin across the children through the serialized
  /// cursor once the stream is cleared. A rendezvous round is cleared when
  /// every child that got its RTS has answered with a CTS. An eager round
  /// is the one-chunk case with implicit clearance: its payload is sent in
  /// one event, with no chunk table, and never enters `streams_`. A relay
  /// keeps one entry, which is both its receive (chunks join in sequence
  /// order, per-channel FIFO guarantees it) and its cut-through send.
  struct DownStream {
    bool eager = false;  ///< Bcast frames, occupancy stretched by the copy
    std::uint32_t nchunks = 0;
    std::uint32_t total = 0;  ///< payload bytes, announced in the RTS
    /// Chunk views by seq: every chunk at the root, the arrived prefix at a
    /// relay or leaf. Relays forward the root's views unchanged, so the
    /// join is normally the root's payload buffer and nothing is copied.
    std::vector<ByteSlice> chunks;
    bool receiving = false;  ///< RTS in, chunks still missing
    bool sending = false;    ///< RTS out to the children, chunks unsent
    std::set<std::uint32_t> cts_pending;  ///< children yet to clear it
    /// Reattached orphans sent the RTS alone: the stream skips them until
    /// their own CTS releases every chunk sent so far.
    std::set<std::uint32_t> parked;
    bool streaming = false;               ///< cleared: chunks may flow
    std::uint32_t next_seq = 0;           ///< next chunk to send
    sim::Time cursor = 0;  ///< serialized send occupancy (absolute time)
    obs::SpanId send_span = obs::kNoSpan;  ///< RTS fan-out .. last chunk out
    obs::SpanId recv_span = obs::kNoSpan;  ///< RTS in .. payload assembled
  };

  // --- tree links (comm::TreeNode hooks) -----------------------------------
  [[nodiscard]] comm::TreeNode::Address address_of(
      std::uint32_t rank) const override;
  [[nodiscard]] std::vector<std::uint32_t> ancestors_of(
      std::uint32_t rank) const override;
  void on_link_message(const cluster::ChannelPtr& ch,
                       cluster::Message m) override;
  /// Register on the first link; Reattach plus re-announces on an adoption.
  void on_linked(const cluster::ChannelPtr& parent, bool adopted) override;
  void on_ready(Status st) override;
  /// A child link died: drop it from the fan-out, unblock any rendezvous
  /// round still waiting on its CTS, then heal or forgive its gather stake.
  void on_child_lost(std::uint32_t lost, bool was_ready) override;
  /// Freezes upstream gather streaming until the adopter's resume offsets.
  void on_orphaned() override;
  /// This daemon's bootstrap span (the "daemon:<session>:<rank>" anchor),
  /// so collective and heal spans nest under the right parent in exports.
  [[nodiscard]] obs::SpanId trace_parent(
      obs::Tracer& tracer) const override;

  void handle_bcast(StreamKey tag, ByteSlice payload);
  void handle_gather_up(StreamKey tag, std::uint32_t src, Entries entries);
  void handle_scatter(StreamKey tag, Entries entries);
  // --- the upstream data plane --------------------------------------------
  /// An entry arrived whole (own contribution or an eager child's): an
  /// origin this node owns, complete on arrival.
  void gather_keep(GatherState& st, std::uint32_t origin,
                   const ByteSlice& data);
  /// Bytes of `o` arrived here. The root copies them into the buffer it
  /// delivers; another node keeps their view only when `keep`.
  void gather_take(Origin& o, const ByteSlice& data, bool keep);
  /// Sum of all payload bytes this node's subtree contributes this round.
  [[nodiscard]] std::size_t gather_subtree_bytes(const GatherState& st) const;
  /// Moves the round on as far as it can go now: a relay whose subtree is in
  /// forwards it eager or announces it, and once no child owes bytes the
  /// root delivers and a streaming relay retires. No-op while contributions
  /// are outstanding.
  void gather_advance(StreamKey tag);
  /// The one finish step of the eager forward, the relay retire and the root
  /// delivery: ends the round's span, then retires it under heal or erases
  /// it.
  void gather_finish(StreamKey tag, GatherState& st);
  /// Announce per-origin sizes upward (GatherRts); the round then waits for
  /// the parent's GatherCts before any payload moves.
  void gather_announce(StreamKey tag, GatherState& st);
  /// The subtree's origin list from the round's table: whole payloads in an
  /// eager GatherUp, sizes in a GatherRts. The first announce and an eager
  /// re-send list the live origins; a rendezvous re-announce lists dropped
  /// ones too, and its GatherDrop follows.
  cluster::Message gather_origins_frame(Kind kind, StreamKey tag,
                                        GatherState& st, bool with_dropped);
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
  /// Marks an origin as lost mid-round (propagates GatherDrop upward).
  void gather_drop_origin(StreamKey tag, GatherState& st,
                          std::uint32_t origin);
  /// The lost-stake sweep: forgets a dead child in every open gather round
  /// (stops waiting for its announce or its heal slot, drops each origin it
  /// owes that never finished) and advances every round it touched.
  void gather_forget(std::uint32_t child);
  void send_up(cluster::Message m);
  void send_to_child(std::uint32_t child_rank, cluster::Message m);
  GatherState& gather_state(StreamKey tag);

  // --- multiplexed delivery / fairness ------------------------------------
  /// Route a completed round to the owning session's handler set. Rounds
  /// for an unbound session are dropped. Broadcast and scatter payloads
  /// are handed over as the view they arrived in.
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
  /// Re-announce in-flight gather rounds to the new parent (sent right
  /// after Reattach on the same FIFO channel, so the adopter processes the
  /// claim before any re-announce).
  void heal_send_reannounces();
  /// Adopter side: claim bookkeeping, origin-ownership transfer, broadcast
  /// replay for a freshly reattached orphan. Takes the channel because the
  /// orphan joins the child table here (not via Register): the link must
  /// carry no live-stream traffic before the replay runs, or catch-up chunks
  /// would arrive out of order.
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
  /// Replays broadcast state a reattached orphan missed: each live stream
  /// and each delivered round it lacks restarts at the chunk offset its
  /// open receive reached (`open_recvs`: key -> chunks received). A
  /// rendezvous round it never saw gets the RTS alone and parks the orphan
  /// on the stream until its CTS. It re-fans-out to its own subtree
  /// natively.
  void heal_replay_bcasts(std::uint32_t orphan,
                          const std::map<StreamKey, std::uint32_t>& open_recvs,
                          const std::set<StreamKey>& delivered);

  // --- the downstream chunk stream ---------------------------------------
  [[nodiscard]] bool use_rendezvous(std::size_t payload_bytes) const;
  /// Hands `take` the views that cut `payload`, from byte `from` on, into
  /// iccl_rndv_chunk_bytes chunks (the last one shorter); none when nothing
  /// is left. Every chunked payload is cut here.
  template <typename Take>
  void each_chunk(const ByteSlice& payload, std::size_t from,
                  Take&& take) const;
  /// Fills a rendezvous round with `payload`'s chunk views and its RTS sizes.
  void stream_load(DownStream& st, const ByteSlice& payload) const;
  /// Opens the send side of a rendezvous round: RTS fan-out to every child.
  void stream_announce(StreamKey tag, DownStream& st);
  void handle_rndv_rts(StreamKey tag, std::uint32_t nchunks,
                       std::uint32_t total);
  void handle_rndv_cts(StreamKey tag, std::uint32_t src);
  /// Sends one child chunks [from, next_seq) at once, outside the send
  /// cursor, so they precede every chunk the stream sends it later. Heal
  /// replay and a parked orphan's CTS catch a joining child up this way.
  void stream_catch_up(StreamKey tag, const DownStream& st,
                       std::uint32_t child, std::uint32_t from);
  /// Takes `child` off the round's CTS set and unparks it; the stream starts
  /// once the set is empty. A CTS and a lost child both land here.
  void stream_clear(StreamKey tag, DownStream& st, std::uint32_t child);
  void handle_rndv_chunk(StreamKey tag, std::uint32_t seq, ByteSlice data);
  /// Sends every chunk not yet sent to every child, if the stream is
  /// cleared, and closes the send side once the last one is out.
  void stream_flush(StreamKey tag, DownStream& st);
  /// Posts chunk `seq` to every child not parked on the round, through the
  /// serialized cursor. An eager round sends its one chunk straight here.
  void stream_send(StreamKey tag, DownStream& st, std::uint32_t seq,
                   const ByteSlice& chunk);

  cluster::Process& self_;
  Params params_;
  comm::Topology topo_;
  std::uint32_t rndv_threshold_ = 0;  ///< resolved (bytes); never 0
  /// Parent dial, child table, ready latch and heal climb.
  comm::TreeNode node_;
  std::function<void(Status)> subtree_ready_;
  std::map<std::uint32_t, SessionHandlers> session_handlers_;
  FrameTap frame_tap_;
  std::map<StreamKey, GatherState> gathers_;
  /// Open rendezvous broadcast rounds, by stream key; an entry goes once
  /// both its sides are closed.
  std::map<StreamKey, DownStream> streams_;

  // --- self-heal state -----------------------------------------------------
  sim::Time heal_grace_ = 0;    ///< orphan-reattach wait before retraction
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

  static constexpr std::size_t kHealHistory = 64;
  static constexpr sim::Time kHealGraceDefault = sim::ms(400);
};

}  // namespace lmon::core
