#include "tbon/endpoint.hpp"

#include <cassert>

#include "cluster/machine.hpp"
#include "simkernel/log.hpp"

namespace lmon::tbon {

namespace {
const char* packet_kind_name(PacketKind kind) {
  switch (kind) {
    case PacketKind::Hello: return "hello";
    case PacketKind::SubtreeUp: return "subtree_up";
    case PacketKind::NewStream: return "new_stream";
    case PacketKind::Down: return "down";
    case PacketKind::Up: return "up";
    case PacketKind::UpPart: return "up_part";
  }
  return "?";
}
}  // namespace

TbonEndpoint::TbonEndpoint(cluster::Process& self, Topology topology,
                           int my_index, Callbacks callbacks)
    : self_(self),
      topo_(std::move(topology)),
      my_index_(my_index),
      cbs_(std::move(callbacks)),
      node_(self_, *this, "tbon", "TBON", kDial,
            static_cast<std::uint32_t>(my_index_),
            node_at(my_index_).parent < 0
                ? std::nullopt
                : std::optional<std::uint32_t>(node_at(my_index_).parent)) {
  // Leaves of the wave: BE children report implicitly via Hello; comm
  // children must additionally confirm their subtree.
  for (int c : topo_.children_of(my_index_)) {
    if (topo_.subtree_has_backend(c)) {
      node_.expect_child(static_cast<std::uint32_t>(c),
                         /*needs_up=*/!node_at(c).is_backend);
      expected_live_.insert(c);
    }
  }
}

std::set<int> TbonEndpoint::live_children() const {
  std::set<int> out;
  for (const auto& [idx, ch] : node_.children()) {
    out.insert(static_cast<int>(idx));
  }
  return out;
}

void TbonEndpoint::start() {
  const TopoNode& me = node_at(my_index_);
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    // Parent chain is best-effort: a child dialing a still-booting parent
    // may begin before the parent's anchor exists.
    const obs::SpanId parent =
        is_root() ? obs::kNoSpan
                  : tracer->anchor("tbon:node:" + std::to_string(me.parent));
    span_ = tracer->begin_span(
        "tbon.bootstrap", "tbon", static_cast<int>(self_.node().id()),
        self_.pid(), parent,
        "index=" + std::to_string(my_index_) +
            (me.is_backend ? " backend" : "") + (is_root() ? " root" : ""));
    tracer->set_anchor("tbon:node:" + std::to_string(my_index_), span_);
  }
  assert((node_.expected_children().empty() || me.port != 0) &&
         "internal TBON nodes need a listening port");
  node_.start(me.port);
}

comm::TreeNode::Address TbonEndpoint::address_of(std::uint32_t index) const {
  const TopoNode& node = node_at(static_cast<int>(index));
  return {node.host, node.port};
}

std::vector<std::uint32_t> TbonEndpoint::ancestors_of(
    std::uint32_t index) const {
  std::vector<std::uint32_t> chain;
  for (int up = node_at(static_cast<int>(index)).parent; up >= 0;
       up = node_at(up).parent) {
    chain.push_back(static_cast<std::uint32_t>(up));
  }
  return chain;
}

void TbonEndpoint::on_linked(const cluster::ChannelPtr& parent,
                             bool /*adopted*/) {
  Packet hello;
  hello.kind = PacketKind::Hello;
  hello.node_index = my_index_;
  self_.send(parent, hello.encode());
}

void TbonEndpoint::on_ready(Status st) {
  obs::Tracer* tracer = self_.machine().tracer();
  if (!st.is_ok()) {
    self_.machine().count("tbon.failures");
    if (tracer != nullptr && span_ != obs::kNoSpan) {
      tracer->end_span(span_, "failed: " + st.message());
    }
    sim::LogLine(sim::LogLevel::Warn, self_.sim().now(), "tbon")
        << "node " << my_index_ << ": " << st.to_string();
  } else {
    if (tracer != nullptr && span_ != obs::kNoSpan) {
      tracer->end_span(span_, "ready children=" +
                                  std::to_string(node_.children().size()));
    }
    if (node_.parent() != nullptr) {
      Packet up;
      up.kind = PacketKind::SubtreeUp;
      up.node_index = my_index_;
      self_.send(node_.parent(), up.encode());
    }
  }
  if (cbs_.on_tree_ready) cbs_.on_tree_ready(std::move(st));
}

void TbonEndpoint::on_link_message(const cluster::ChannelPtr& ch,
                                   cluster::Message m) {
  auto packet = Packet::decode(m);
  if (!packet) return;
  self_.machine().count("tbon.packets");
  self_.machine().count(std::string("tbon.packets.") +
                        packet_kind_name(packet->kind));
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("tbon.packet", "tbon",
                    static_cast<int>(self_.node().id()), self_.pid(), span_,
                    std::string("kind=") + packet_kind_name(packet->kind) +
                        " stream=" + std::to_string(packet->stream) +
                        " tag=" + std::to_string(packet->tag) +
                        " from=" + std::to_string(packet->node_index));
  }
  // Partial contributions ride the cheap chunk-handling path: they are
  // fixed-size and headerless, so receive cost mirrors an ICCL chunk, not
  // a full message unpack.
  const auto& costs = self_.machine().costs();
  const sim::Time handle_cost = packet->kind == PacketKind::UpPart
                                    ? costs.iccl_chunk_handle
                                    : costs.iccl_msg_handle;
  self_.post(handle_cost,
             [this, ch, p = std::move(*packet)]() mutable {
               switch (p.kind) {
                 case PacketKind::Hello:
                   handle_hello(ch, p.node_index);
                   break;
                 case PacketKind::SubtreeUp:
                   node_.report_up(static_cast<std::uint32_t>(p.node_index));
                   break;
                 case PacketKind::NewStream:
                 case PacketKind::Down:
                   handle_down(p);
                   break;
                 case PacketKind::Up:
                   handle_up(p.node_index, std::move(p));
                   break;
                 case PacketKind::UpPart:
                   handle_up_part(p.node_index, std::move(p));
                   break;
               }
             });
}

void TbonEndpoint::handle_hello(const cluster::ChannelPtr& ch,
                                int child_index) {
  // Child registration serializes at the parent (accept + validation +
  // routing update). A 1-deep root registers every back end itself, which
  // is the "MRNet handshaking" component of Fig. 6's startup time.
  const sim::Time cost = self_.machine().costs().tbon_register_cost;
  const sim::Time now = self_.sim().now();
  if (register_busy_until_ < now) register_busy_until_ = now;
  register_busy_until_ += cost;
  const sim::Time delay = register_busy_until_ - now;
  self_.machine().count("tbon.children_registered");
  self_.machine().observe("tbon.register_delay_ms", sim::to_ms(delay));
  self_.post(delay, [this, ch, child_index] {
    const bool adoption = node_.heal() && node_.ready_fired();
    node_.add_child(static_cast<std::uint32_t>(child_index), ch);
    if (!adoption) return;
    // An orphan (possibly from a deeper level) re-Helloed us after its
    // parent died. Fold it into the live membership and catch it up on
    // every stream announced while it was detached, so its upstream
    // contributions land with the right filter.
    self_.machine().count("tbon.heal.adoptions");
    if (topo_.subtree_has_backend(child_index)) {
      expected_live_.insert(child_index);
    }
    for (const auto& [stream, filter] : stream_filters_) {
      Packet ann;
      ann.kind = PacketKind::NewStream;
      ann.stream = stream;
      ann.filter = filter;
      self_.send(ch, ann.encode());
      self_.machine().count("tbon.heal.streams_replayed");
    }
  });
}

void TbonEndpoint::on_child_lost(std::uint32_t child, bool was_ready) {
  if (!node_.heal() || !was_ready) return;
  const int lost = static_cast<int>(child);
  expected_live_.erase(lost);
  self_.machine().count("tbon.heal.children_lost");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("tbon.heal.child_lost", "tbon",
                    static_cast<int>(self_.node().id()), self_.pid(),
                    obs::kNoSpan,
                    "node " + std::to_string(my_index_) + " lost child " +
                        std::to_string(lost) + " post-ready (healing)");
  }
  // Rounds in flight across the failure would wait forever on the dead
  // subtree: drop its pending entry and let stragglers complete. Its
  // contribution to those rounds is lost by design (the orphan re-sends
  // nothing at this layer); rounds opened after adoption are whole again.
  std::vector<std::uint64_t> keys;
  keys.reserve(rounds_.size());
  for (auto& [key, round] : rounds_) {
    if (round.pending_children.erase(lost) != 0) keys.push_back(key);
  }
  for (const std::uint64_t key : keys) maybe_complete_round(key);
}

std::uint32_t TbonEndpoint::new_stream(std::uint32_t filter_id) {
  assert(is_root());
  const std::uint32_t stream = next_stream_++;
  stream_filters_[stream] = filter_id;
  Packet p;
  p.kind = PacketKind::NewStream;
  p.stream = stream;
  p.filter = filter_id;
  handle_down(p);
  return stream;
}

std::uint32_t TbonEndpoint::filter_of(std::uint32_t stream) const {
  auto it = stream_filters_.find(stream);
  return it == stream_filters_.end() ? kFilterConcat : it->second;
}

void TbonEndpoint::send_down(std::uint32_t stream, std::uint32_t tag,
                             Bytes data) {
  assert(is_root());
  self_.machine().count("tbon.downs");
  Packet p;
  p.kind = PacketKind::Down;
  p.stream = stream;
  p.tag = tag;
  p.data = std::move(data);
  handle_down(p);
}

void TbonEndpoint::handle_down(const Packet& p) {
  if (p.kind == PacketKind::NewStream) stream_filters_[p.stream] = p.filter;
  const auto& children = node_.children();
  if (!children.empty()) {
    self_.machine().count("tbon.down_forwards",
                          static_cast<double>(children.size()));
  }
  for (auto& [idx, ch] : children) {
    self_.send(ch, p.encode());
  }
  const bool is_leaf = node_.expected_children().empty();
  if (p.kind == PacketKind::Down && (is_leaf || !is_root()) && cbs_.on_down) {
    cbs_.on_down(p.stream, p.tag, p.data);
  }
}

void TbonEndpoint::send_up(std::uint32_t stream, std::uint32_t tag,
                           Bytes data) {
  const TopoNode& me = node_at(my_index_);
  self_.machine().count("tbon.ups");
  Packet p;
  p.kind = PacketKind::Up;
  p.stream = stream;
  p.tag = tag;
  p.node_index = my_index_;
  if (me.is_backend) {
    p.ranks.push_back(static_cast<std::uint32_t>(me.be_rank));
    // Framed filters (concat, structured merges) expect leaf payloads
    // wrapped; raw reductions (sum/max) operate on the bytes directly.
    p.data = FilterRegistry::instance().framed(filter_of(stream))
                 ? wrap_leaf_payload(data)
                 : std::move(data);
  } else {
    p.data = std::move(data);
  }
  if (node_.parent() != nullptr) {
    self_.send(node_.parent(), p.encode());
  } else if (is_root() && cbs_.on_up) {
    // Degenerate rootless-parent delivery: fold any locally buffered parts
    // (send_up_part on a single-node overlay) before handing to the FE.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(stream) << 32) | tag;
    auto it = rounds_.find(key);
    if (it != rounds_.end() && it->second.reduction != nullptr) {
      fold_into_round(it->second, stream, p.data);
      const Bytes reduced = it->second.reduction->take();
      rounds_.erase(it);
      cbs_.on_up(stream, tag, reduced, p.ranks);
    } else {
      cbs_.on_up(stream, tag, p.data, p.ranks);
    }
  }
}

void TbonEndpoint::send_up_part(std::uint32_t stream, std::uint32_t tag,
                                Bytes data) {
  const TopoNode& me = node_at(my_index_);
  Packet p;
  p.kind = PacketKind::UpPart;
  p.stream = stream;
  p.tag = tag;
  p.node_index = my_index_;
  // Parts carry no ranks: coverage accounting stays on the final Up.
  p.data = me.is_backend &&
                   FilterRegistry::instance().framed(filter_of(stream))
               ? wrap_leaf_payload(data)
               : std::move(data);
  if (node_.parent() != nullptr) {
    self_.send(node_.parent(), p.encode());
  } else if (is_root()) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(stream) << 32) | tag;
    fold_into_round(round_for(key), stream, p.data);
  }
}

TbonEndpoint::Round& TbonEndpoint::round_for(std::uint64_t key) {
  auto it = rounds_.find(key);
  if (it == rounds_.end()) {
    Round round;
    if (node_.heal()) {
      // Live membership: losses shrink it, adoptions (including orphans
      // from deeper levels) grow it, so a round opened after a failure
      // waits for exactly the surviving tree.
      round.pending_children = expected_live_;
    } else {
      for (const std::uint32_t c : node_.expected_children()) {
        round.pending_children.insert(static_cast<int>(c));
      }
    }
    it = rounds_.emplace(key, std::move(round)).first;
  }
  return it->second;
}

void TbonEndpoint::fold_into_round(Round& round, std::uint32_t stream,
                                   const Bytes& data) {
  if (round.reduction == nullptr) {
    round.reduction = FilterRegistry::instance().make(filter_of(stream));
  }
  round.reduction->add(data);
}

void TbonEndpoint::maybe_flush_part(Round& round, std::uint32_t stream,
                                    std::uint32_t tag) {
  // Root has nowhere to stream to; everyone else relays the reduction
  // upward once it reaches a chunk so per-level memory stays O(chunk).
  if (is_root() || node_.parent() == nullptr || round.reduction == nullptr) {
    return;
  }
  const std::size_t chunk = self_.machine().costs().iccl_rndv_chunk_bytes;
  if (round.reduction->packed_size() < chunk) return;
  self_.machine().count("tbon.part_flushes");
  Packet part;
  part.kind = PacketKind::UpPart;
  part.stream = stream;
  part.tag = tag;
  part.node_index = my_index_;
  part.data = round.reduction->take();
  // Back to "nothing since the last flush": a round that then completes
  // without another arrival (a heal-mode loss) relays an empty residue.
  round.reduction.reset();
  self_.send(node_.parent(), part.encode());
}

void TbonEndpoint::handle_up_part(int child_index, Packet p) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(p.stream) << 32) | p.tag;
  Round& round = round_for(key);
  (void)child_index;  // sender stays pending until its final Up
  self_.machine().count("tbon.up_parts");
  self_.machine().count("tbon.up_part_bytes",
                        static_cast<double>(p.data.size()));
  fold_into_round(round, p.stream, p.data);
  maybe_flush_part(round, p.stream, p.tag);
}

void TbonEndpoint::handle_up(int child_index, Packet p) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(p.stream) << 32) | p.tag;
  Round& round = round_for(key);
  round.pending_children.erase(child_index);
  fold_into_round(round, p.stream, p.data);
  round.ranks.insert(round.ranks.end(), p.ranks.begin(), p.ranks.end());
  if (!round.pending_children.empty()) {
    maybe_flush_part(round, p.stream, p.tag);
    return;
  }
  maybe_complete_round(key);
}

void TbonEndpoint::maybe_complete_round(std::uint64_t key) {
  auto it = rounds_.find(key);
  if (it == rounds_.end() || !it->second.pending_children.empty()) return;
  const auto stream = static_cast<std::uint32_t>(key >> 32);
  const auto tag = static_cast<std::uint32_t>(key & 0xffffffffu);

  // All (surviving) child subtrees contributed: what the reduction holds
  // is the round's result.
  self_.machine().count("tbon.rounds_reduced");
  Bytes reduced = it->second.reduction != nullptr
                      ? it->second.reduction->take()
                      : Bytes{};
  std::vector<std::uint32_t> ranks = std::move(it->second.ranks);
  std::sort(ranks.begin(), ranks.end());
  rounds_.erase(it);

  if (is_root()) {
    if (cbs_.on_up) cbs_.on_up(stream, tag, reduced, ranks);
    return;
  }
  Packet up;
  up.kind = PacketKind::Up;
  up.stream = stream;
  up.tag = tag;
  up.node_index = my_index_;
  up.ranks = std::move(ranks);
  up.data = std::move(reduced);
  if (node_.parent() != nullptr) self_.send(node_.parent(), up.encode());
}

}  // namespace lmon::tbon
