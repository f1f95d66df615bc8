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
#include "comm/tree_node.hpp"
#include "common/status.hpp"
#include "obs/trace.hpp"
#include "tbon/filter.hpp"
#include "tbon/packet.hpp"
#include "tbon/topology.hpp"

namespace lmon::tbon {

class TbonEndpoint : private comm::TreeNode::Hooks {
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

  /// How a node dials its overlay parent: a fixed 4 ms retry, 60 times
  /// (a 240 ms budget). The fabric backs off instead (Iccl::kDial); the
  /// overlay's start-up times, Fig. 6's among them, are measured under
  /// this schedule.
  static constexpr comm::DialPolicy kDial{60, sim::ms(4), sim::ms(4)};

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
  void set_heal(bool on) { node_.set_heal(on); }
  [[nodiscard]] bool heal() const { return node_.heal(); }
  /// Current parent topology index (-1 at the root); moves on reparent.
  [[nodiscard]] int parent_index() const {
    return is_root() ? -1 : static_cast<int>(node_.parent_index());
  }
  /// Child topology indices with a live link (adoption view, for tests).
  [[nodiscard]] std::set<int> live_children() const;

  [[nodiscard]] bool is_root() const { return my_index_ == 0; }
  [[nodiscard]] int index() const { return my_index_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }

  // --- root API -------------------------------------------------------------
  /// Creates a stream bound to an upstream filter; announced down-tree.
  std::uint32_t new_stream(std::uint32_t filter_id);
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

  // --- tree links (comm::TreeNode hooks) -----------------------------------
  [[nodiscard]] comm::TreeNode::Address address_of(
      std::uint32_t index) const override;
  /// The chain of TopoNode::parent links above `index`.
  [[nodiscard]] std::vector<std::uint32_t> ancestors_of(
      std::uint32_t index) const override;
  void on_link_message(const cluster::ChannelPtr& ch,
                       cluster::Message m) override;
  /// Hello, on the first link and on an adoption alike.
  void on_linked(const cluster::ChannelPtr& parent, bool adopted) override;
  void on_ready(Status st) override;
  /// Post-ready child link loss with healing on: drop the child from the
  /// live set and from every open round's pending set, completing rounds
  /// it was the last straggler of.
  void on_child_lost(std::uint32_t lost, bool was_ready) override;
  [[nodiscard]] obs::SpanId trace_parent(obs::Tracer&) const override {
    return span_;
  }

  /// Finishes (delivers or relays) the round if nothing is pending.
  void maybe_complete_round(std::uint64_t key);
  void handle_hello(const cluster::ChannelPtr& ch, int child_index);
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
  [[nodiscard]] std::uint32_t filter_of(std::uint32_t stream) const;
  [[nodiscard]] const TopoNode& node_at(int index) const {
    return topo_.nodes()[static_cast<std::size_t>(index)];
  }

  cluster::Process& self_;
  Topology topo_;  ///< shared with every endpoint built from the same value
  int my_index_;
  Callbacks cbs_;
  /// Parent dial, child table (children with back ends), ready latch and
  /// heal climb.
  comm::TreeNode node_;
  /// Children whose subtree still has a live backend path. Mirrors the
  /// expected children until heal-mode losses/adoptions diverge it; new
  /// rounds seed their pending set from here so a post-failure reduction
  /// waits for exactly the surviving (possibly adopted) membership.
  std::set<int> expected_live_;
  std::map<std::uint32_t, std::uint32_t> stream_filters_;
  std::uint32_t next_stream_ = 1;
  std::map<std::uint64_t, Round> rounds_;  ///< (stream<<32|tag) -> round
  sim::Time register_busy_until_ = 0;      ///< serialized child registration
  obs::SpanId span_ = obs::kNoSpan;        ///< bootstrap span (start..ready)
};

}  // namespace lmon::tbon
