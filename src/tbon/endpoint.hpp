// endpoint.hpp - per-process TBON node runtime.
//
// One TbonEndpoint embeds a process into the overlay tree at a given
// topology index: the tool FE at the root, communication daemons at
// internal positions, tool back ends at the leaves. It handles link
// establishment (children dial parents), the bottom-up "subtree connected"
// wave, stream management, downstream broadcast and upstream filtered
// aggregation with per-(stream, tag) round synchronization.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "cluster/process.hpp"
#include "common/status.hpp"
#include "obs/trace.hpp"
#include "tbon/filter.hpp"
#include "tbon/packet.hpp"
#include "tbon/topology.hpp"

namespace lmon::tbon {

class TbonEndpoint {
 public:
  struct Callbacks {
    /// Fires when this node's subtree is fully connected. At the root this
    /// means the whole overlay network is up.
    std::function<void(Status)> on_tree_ready;
    /// Root: an aggregated upstream wave completed for (stream, tag).
    std::function<void(std::uint32_t stream, std::uint32_t tag,
                       const Bytes& data,
                       const std::vector<std::uint32_t>& ranks)>
        on_up;
    /// Leaves (and comm nodes, for control): downstream packet arrived.
    std::function<void(std::uint32_t stream, std::uint32_t tag,
                       const Bytes& data)>
        on_down;
  };

  TbonEndpoint(cluster::Process& self, Topology topology, int my_index,
               Callbacks callbacks);

  TbonEndpoint(const TbonEndpoint&) = delete;
  TbonEndpoint& operator=(const TbonEndpoint&) = delete;

  /// Wires this endpoint: comm/root nodes listen, non-roots dial their
  /// parent (with retries while the parent boots).
  void start();

  /// Opt into self-healing: on post-ready parent loss this node climbs the
  /// topology's ancestor chain and re-Hellos the nearest reachable live
  /// ancestor; adopters fold the orphan into future rounds and replay
  /// stream announcements. Default off (the pre-heal overlay tears down on
  /// any post-ready link loss). Must be set before start(). Minimal by
  /// design: rounds in flight *across* the failure lose the dead subtree's
  /// contribution (their pending entry is dropped so the round still
  /// completes); only rounds opened after adoption include the orphan.
  void set_heal(bool on) { heal_ = on; }
  [[nodiscard]] bool heal() const { return heal_; }
  /// Current parent topology index (-1 at the root); moves on reparent.
  [[nodiscard]] int parent_index() const { return parent_index_; }
  /// Child topology indices with a live link (adoption view, for tests).
  [[nodiscard]] std::set<int> live_children() const;

  [[nodiscard]] bool is_root() const { return my_index_ == 0; }
  [[nodiscard]] int index() const { return my_index_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }

  // --- root API -------------------------------------------------------------
  /// Creates a stream bound to an upstream filter; announced down-tree.
  /// `session` namespaces the stream on a multiplexed overlay (0 = the
  /// infrastructure session): every node attributes the stream's traffic
  /// to `tbon.s<session>.*` counters alongside the aggregate `tbon.*`.
  std::uint32_t new_stream(std::uint32_t filter_id,
                           std::uint32_t session = 0);
  /// Session a stream was announced under (0 if unknown/infrastructure).
  [[nodiscard]] std::uint32_t session_of(std::uint32_t stream) const;
  /// Broadcasts (stream, tag, data) to every back end.
  void send_down(std::uint32_t stream, std::uint32_t tag, Bytes data);

  // --- leaf API --------------------------------------------------------------
  /// Sends this back end's contribution for (stream, tag) toward the root;
  /// internal nodes aggregate with the stream's filter.
  void send_up(std::uint32_t stream, std::uint32_t tag, Bytes data);
  /// Streams a chunk-granularity partial contribution for (stream, tag).
  /// Parts fold into the parent's round accumulator as they arrive (the
  /// stream's filter must be associative), but the sender stays pending
  /// until its final send_up(), which carries the residue and the rank set.
  /// Lets a back end emit a large aggregate piecewise so no hop ever holds
  /// more than O(chunk) of it.
  void send_up_part(std::uint32_t stream, std::uint32_t tag, Bytes data);

 private:
  struct Round {
    std::set<int> pending_children;  ///< topology child indices outstanding
    /// The stream filter's reduction of everything that has arrived since
    /// the last flush (null: nothing has). Parts and final payloads alike
    /// are added on arrival, so memory here tracks the *reduced* size, not
    /// the sum of raw child payloads.
    std::unique_ptr<Reduction> reduction;
    std::vector<std::uint32_t> ranks;
  };

  void connect_parent(int attempts_left);
  // --- self-heal (heal_ only) ----------------------------------------------
  /// Post-ready parent loss: start the climb at the dead parent's parent.
  void begin_reparent();
  /// Dial topology index `target`; exhausted retries climb one more level.
  void try_reattach(int target, int attempts_left);
  /// Post-ready child link loss: drop the child from the live set and from
  /// every open round's pending set, completing rounds it was the last
  /// straggler of.
  void on_child_lost(const cluster::ChannelPtr& ch);
  /// Finishes (delivers or relays) the round if nothing is pending.
  void maybe_complete_round(std::uint64_t key);
  void on_packet(const cluster::ChannelPtr& ch, cluster::Message m);
  void handle_hello(const cluster::ChannelPtr& ch, int child_index);
  void handle_subtree_up(int child_index);
  void handle_down(const Packet& p);
  void handle_up(int child_index, Packet p);
  void handle_up_part(int child_index, Packet p);
  [[nodiscard]] Round& round_for(std::uint64_t key);
  /// Adds `data` to the round's reduction with the stream's filter.
  void fold_into_round(Round& round, std::uint32_t stream, const Bytes& data);
  /// Interior (non-root) nodes relay the reduction upward as an UpPart
  /// once its packed size reaches the chunk threshold, keeping per-level
  /// memory O(chunk) while reduction overlaps transport.
  void maybe_flush_part(Round& round, std::uint32_t stream,
                        std::uint32_t tag);
  void maybe_tree_ready();
  void fail(Status st);
  [[nodiscard]] std::uint32_t filter_of(std::uint32_t stream) const;
  /// Counts `tbon.<name>` plus `tbon.s<session>.<name>` when the stream
  /// belongs to a nonzero (virtual) session.
  void count_stream(std::uint32_t stream, const char* name, double v = 1.0);

  cluster::Process& self_;
  Topology topo_;
  int my_index_;
  Callbacks cbs_;
  cluster::ChannelPtr parent_;
  std::map<int, cluster::ChannelPtr> children_;   ///< topo index -> link
  std::vector<int> expected_children_;            ///< children with backends
  /// Children whose subtree still has a live backend path. Mirrors
  /// expected_children_ until heal-mode losses/adoptions diverge it; new
  /// rounds seed their pending set from here so a post-failure reduction
  /// waits for exactly the surviving (possibly adopted) membership.
  std::set<int> expected_live_;
  bool heal_ = false;
  int parent_index_ = -1;  ///< current parent topo index (moves on reparent)
  std::set<int> subtree_up_pending_;
  bool parent_linked_ = false;
  bool ready_fired_ = false;
  std::map<std::uint32_t, std::uint32_t> stream_filters_;
  /// Session each stream was announced under (multiplexed overlays).
  std::map<std::uint32_t, std::uint32_t> stream_sessions_;
  std::uint32_t next_stream_ = 1;
  std::map<std::uint64_t, Round> rounds_;  ///< (stream<<32|tag) -> round
  sim::Time register_busy_until_ = 0;      ///< serialized child registration
  obs::SpanId span_ = obs::kNoSpan;        ///< bootstrap span (start..ready)

  static constexpr int kConnectRetries = 60;
  static constexpr sim::Time kRetryDelay = sim::ms(4);
  /// Per-ancestor dial budget during a heal climb: short, because a dead
  /// ancestor should cost a few retries before the orphan climbs past it.
  static constexpr int kHealConnectRetries = 3;
};

/// True when the subtree rooted at `index` contains a back end.
bool subtree_has_backend(const Topology& topo, int index);

}  // namespace lmon::tbon
