#include "core/iccl.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>

#include "cluster/machine.hpp"
#include "comm/heal.hpp"
#include "simkernel/log.hpp"

namespace lmon::core {

namespace {

using Kind = Iccl::Kind;

static_assert(Iccl::kFrameHeaderBytes ==
                  sizeof(std::uint8_t) + 4 * sizeof(std::uint32_t),
              "write_frame_header: kind u8; session, tag, src, count u32");
static_assert(Iccl::kEntryHeaderBytes == 2 * sizeof(std::uint32_t),
              "an entry header is its rank and its length, u32 each");

void write_frame_header(ByteWriter& w, Kind kind, StreamKey tag,
                        std::uint32_t src, std::size_t count) {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(tag.session);
  w.u32(tag.tag);
  w.u32(src);
  w.u32(static_cast<std::uint32_t>(count));
}

/// A flat frame: header, then every entry copied in behind it. Control and
/// multi-entry frames (GatherUp, Scatter, GatherRts, ...) use this form.
/// `Blob` is Bytes or ByteSlice.
template <typename Blob = Bytes>
cluster::Message encode_frame(
    Kind kind, StreamKey tag, std::uint32_t src,
    const std::vector<std::pair<std::uint32_t, Blob>>& entries = {}) {
  std::size_t size = Iccl::kFrameHeaderBytes;
  for (const auto& [rank, data] : entries) {
    size += Iccl::kEntryHeaderBytes + data.size();
  }
  ByteWriter w(size);
  write_frame_header(w, kind, tag, src, entries.size());
  for (const auto& [rank, data] : entries) {
    w.u32(rank);
    w.blob(std::span<const std::uint8_t>(data.data(), data.size()));
  }
  return cluster::Message(std::move(w).take());
}

/// Chunks of `chunk` bytes that carry `bytes` (the last one shorter).
std::size_t chunks_for(std::size_t bytes, std::size_t chunk) {
  return (bytes + chunk - 1) / chunk;
}

/// Bcast, RndvChunk and GatherChunk carry exactly one entry: its payload.
bool is_payload_kind(Kind kind) {
  return kind == Kind::Bcast || kind == Kind::RndvChunk ||
         kind == Kind::GatherChunk;
}

/// A payload frame: only the header is encoded; the payload follows it on
/// the wire as a view of the sender's buffer, so the wire image (and its
/// size) is that of the flat frame without copying a payload byte.
cluster::Message payload_frame(Kind kind, StreamKey tag, std::uint32_t src,
                               std::uint32_t rank, ByteSlice data) {
  ByteWriter w(Iccl::kFrameHeaderBytes + Iccl::kEntryHeaderBytes);
  write_frame_header(w, kind, tag, src, 1);
  w.u32(rank);
  w.u32(static_cast<std::uint32_t>(data.size()));
  return cluster::Message(std::move(w).take(), std::move(data));
}

struct Frame {
  Kind kind;
  StreamKey tag;
  std::uint32_t src;
  std::vector<std::pair<std::uint32_t, ByteSlice>> entries;
};

/// Decodes without copying a payload byte: a payload frame's entry is the
/// message's view, and a flat frame's entries view the message's own bytes.
/// Rejects a payload frame whose entry count is not 1, or whose length field
/// disagrees with the view behind its header, and an RTS that is not one
/// entry announcing the `chunk_bytes` chunks its total needs. The receiver
/// sizes its chunk table from that count, so a count the total does not
/// need never reaches it; nor does an empty payload, which always goes
/// eager.
std::optional<Frame> decode_frame(cluster::Message m, std::size_t chunk_bytes) {
  ByteReader r(m.bytes);
  auto kind = r.u8();
  auto session = r.u32();
  auto tag = r.u32();
  auto src = r.u32();
  auto count = r.u32();
  if (!kind || !session || !tag || !src || !count) return std::nullopt;
  Frame f{static_cast<Kind>(*kind), StreamKey{*session, *tag}, *src, {}};
  // Payload frames carry exactly one entry, and only they may carry a view.
  const bool payload = is_payload_kind(f.kind);
  const bool rts = f.kind == Kind::RndvRts;
  if (((payload || rts) && *count != 1) || (!payload && !m.view.empty())) {
    return std::nullopt;
  }
  if (!m.view.empty()) {
    auto rank = r.u32();
    auto len = r.u32();
    if (!rank || !len || *len != m.view.size() || !r.exhausted()) {
      return std::nullopt;
    }
    f.entries.emplace_back(*rank, std::move(m.view));
    return f;
  }
  if (*count == 0) return f;
  auto buf = std::make_shared<const Bytes>(std::move(m.bytes));
  ByteReader body(std::span<const std::uint8_t>(*buf).subspan(
      Iccl::kFrameHeaderBytes));
  f.entries.reserve(
      std::min<std::size_t>(*count,
                            body.remaining() / Iccl::kEntryHeaderBytes));
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto rank = body.u32();
    auto data = body.blob_view();
    if (!rank || !data) return std::nullopt;
    const auto offset = static_cast<std::size_t>(data->data() - buf->data());
    f.entries.emplace_back(*rank, ByteSlice(buf, offset, data->size()));
  }
  if (rts) {
    const auto& [nchunks, blob] = f.entries.front();
    const auto total = ByteReader(blob.span()).u32();
    if (!total || nchunks == 0 || nchunks != chunks_for(*total, chunk_bytes)) {
      return std::nullopt;
    }
  }
  return f;
}

}  // namespace

obs::SpanId Iccl::trace_parent(obs::Tracer& tracer) const {
  return tracer.anchor("daemon:" + params_.session + ":" +
                       std::to_string(params_.rank));
}

Iccl::Iccl(cluster::Process& self, Params params)
    : self_(self),
      params_(std::move(params)),
      topo_(params_.topology, params_.size),
      node_(self_, *this, "iccl", "fabric", kDial, params_.rank,
            topo_.parent_of(params_.rank)) {
  // Every node (including leaves) reports SetupUp; we expect one per child.
  for (const std::uint32_t child : topo_.children_of(params_.rank)) {
    node_.expect_child(child, /*needs_up=*/true);
  }
  node_.set_heal(params_.heal);
  // The engine's tuner resolves the threshold for every launch path and
  // hands it down in the bootstrap; 0 only reaches here from harnesses that
  // start daemons without an engine, which take this machine's costs.
  rndv_threshold_ = params_.rndv_threshold != 0
                        ? params_.rndv_threshold
                        : self_.machine().costs().iccl_rndv_threshold_bytes;
  if (rndv_threshold_ == 0) rndv_threshold_ = 1;
  heal_grace_ = params_.heal_grace_ms != 0 ? sim::ms(params_.heal_grace_ms)
                                           : kHealGraceDefault;
}

void Iccl::start(std::function<void(Status)> subtree_ready) {
  subtree_ready_ = std::move(subtree_ready);
  // Endpoint initialization cost (socket setup, registration with the
  // RM-provided bootstrap info).
  self_.post(self_.machine().costs().fabric_endpoint_init,
             [this] { node_.start(params_.port); });
}

comm::TreeNode::Address Iccl::address_of(std::uint32_t rank) const {
  return {std::string(params_.hosts.at(rank)), params_.port};
}

std::vector<std::uint32_t> Iccl::ancestors_of(std::uint32_t rank) const {
  return comm::ancestor_chain(topo_, rank);
}

void Iccl::on_ready(Status st) {
  if (st.is_ok()) send_up(encode_frame(Kind::SetupUp, 0, params_.rank));
  if (subtree_ready_) subtree_ready_(std::move(st));
}

void Iccl::on_link_message(const cluster::ChannelPtr& ch,
                           cluster::Message m) {
  auto frame = decode_frame(std::move(m),
                            self_.machine().costs().iccl_rndv_chunk_bytes);
  if (!frame) return;
  if (frame_tap_) {
    frame_tap_(frame->kind, frame->tag, frame->src,
               frame->entries.empty() ? 0 : frame->entries.front().second.size());
  }
  // Per-message handling cost inside the daemon's collective layer. Eager
  // payload frames (broadcast, scatter and whole-subtree gather-up alike)
  // additionally pay the bounce-buffer copy-out; rendezvous chunks retire a
  // pre-registered zero-copy buffer instead, which is what makes the chunk
  // path cheap per byte in both directions.
  const auto& costs = self_.machine().costs();
  const Kind kind = frame->kind;
  sim::Time handle_cost = costs.iccl_msg_handle;
  if (kind == Kind::RndvChunk || kind == Kind::GatherChunk) {
    handle_cost = costs.iccl_chunk_handle;
  } else if (kind == Kind::Bcast || kind == Kind::Scatter ||
             kind == Kind::GatherUp) {
    std::size_t payload_bytes = 0;
    for (const auto& [rank, data] : frame->entries) {
      payload_bytes += data.size();
    }
    handle_cost += costs.eager_copy_cost(static_cast<double>(payload_bytes));
  }
  self_.post(handle_cost, [this, ch, frame = std::move(*frame)]() mutable {
    switch (frame.kind) {
      case Kind::Register:
        node_.add_child(frame.src, ch);
        break;
      case Kind::SetupUp:
        node_.report_up(frame.src);
        break;
      case Kind::Bcast:
        handle_bcast(frame.tag, std::move(frame.entries.front().second));
        break;
      case Kind::GatherUp:
        handle_gather_up(frame.tag, frame.src, std::move(frame.entries));
        break;
      case Kind::Scatter:
        handle_scatter(frame.tag, std::move(frame.entries));
        break;
      case Kind::RndvRts: {
        ByteReader r(frame.entries.front().second.span());
        handle_rndv_rts(frame.tag, frame.entries.front().first,
                        r.u32().value_or(0));
        break;
      }
      case Kind::RndvCts:
        handle_rndv_cts(frame.tag, frame.src);
        break;
      case Kind::RndvChunk:
        handle_rndv_chunk(frame.tag, frame.entries.front().first,
                          std::move(frame.entries.front().second));
        break;
      case Kind::GatherRts:
        handle_gather_rts(frame.tag, frame.src, frame.entries);
        break;
      // Clearance and resume come only from the live parent: a frame the
      // dead parent sent before dying can be handled after the reattach.
      case Kind::GatherCts:
        if (ch == node_.parent()) handle_gather_cts(frame.tag);
        break;
      case Kind::GatherChunk:
        handle_gather_chunk(frame.tag, frame.entries.front().first,
                            std::move(frame.entries.front().second));
        break;
      case Kind::GatherDrop:
        handle_gather_drop(frame.tag, frame.entries);
        break;
      case Kind::Reattach:
        if (!frame.entries.empty()) {
          handle_reattach(ch, frame.src, frame.entries.front().second);
        }
        break;
      case Kind::GatherResume:
        if (ch == node_.parent()) {
          handle_gather_resume(frame.tag, frame.entries);
        }
        break;
      case Kind::GatherDone:
        handle_gather_done(frame.tag);
        break;
      case Kind::Leave:
        handle_leave(frame.src);
        break;
    }
  });
}

bool Iccl::use_rendezvous(std::size_t payload_bytes) const {
  return payload_bytes >= rndv_threshold_ && payload_bytes > 0;
}

template <typename Take>
void Iccl::each_chunk(const ByteSlice& payload, std::size_t from,
                      Take&& take) const {
  const std::size_t chunk = self_.machine().costs().iccl_rndv_chunk_bytes;
  for (std::size_t begin = from; begin < payload.size(); begin += chunk) {
    take(payload.sub(begin, std::min(chunk, payload.size() - begin)));
  }
}

void Iccl::stream_load(DownStream& st, const ByteSlice& payload) const {
  st.total = static_cast<std::uint32_t>(payload.size());
  st.chunks.reserve(chunks_for(
      payload.size(), self_.machine().costs().iccl_rndv_chunk_bytes));
  each_chunk(payload, 0,
             [&st](ByteSlice c) { st.chunks.push_back(std::move(c)); });
  st.nchunks = static_cast<std::uint32_t>(st.chunks.size());
}

void Iccl::handle_bcast(StreamKey tag, ByteSlice payload) {
  // Heal replay duplicate: this round was already delivered here (and fanned
  // out); drop it entirely so neither the handler nor the subtree sees it
  // twice. Tags are unique per round, so the ring is an exact guard.
  if (node_.heal() && bcast_history_.count(tag) != 0) return;
  // This node holds the complete payload (root issue, or an eager frame
  // arrived). Every frame sent below views that one buffer.
  if (!node_.children().empty()) {
    if (use_rendezvous(payload.size())) {
      // The root has every chunk up front; they stream as soon as the last
      // CTS arrives.
      DownStream& st = streams_[tag] = DownStream{};
      stream_load(st, payload);
      stream_announce(tag, st);
    } else {
      // Eager: one chunk, cleared implicitly, sent straight from the
      // payload. Its quantum stretches with the payload, which is the
      // per-level cost that makes eager T(collective) grow with fan-out and
      // payload size (swept in bench_ablation_iccl; rendezvous exists to
      // beat it).
      DownStream st;
      st.eager = true;
      const std::size_t children = node_.children().size();
      count_mux(tag, "eager_frames", static_cast<double>(children));
      if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
        tracer->instant("iccl.eager_fanout", "iccl",
                        static_cast<int>(self_.node().id()), self_.pid(),
                        trace_parent(*tracer),
                        "tag=" + tag.str() +
                            " children=" + std::to_string(children) +
                            " bytes=" + std::to_string(payload.size()));
      }
      stream_send(tag, st, 0, payload);
    }
  }
  if (node_.heal()) heal_record_bcast(tag, payload);
  deliver_bcast(tag, payload);
}

void Iccl::broadcast(StreamKey tag, Bytes data) {
  assert(is_root() && "broadcast must originate at the ICCL root");
  handle_bcast(tag, ByteSlice(std::make_shared<const Bytes>(std::move(data))));
}

// --- rendezvous (RTS/CTS + pipelined chunks) -----------------------------

void Iccl::stream_announce(StreamKey tag, DownStream& st) {
  st.sending = true;
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    st.send_span = tracer->begin_span(
        "iccl.rndv_send", "iccl", static_cast<int>(self_.node().id()),
        self_.pid(), trace_parent(*tracer),
        "tag=" + tag.str() + " chunks=" + std::to_string(st.nchunks) +
            " bytes=" + std::to_string(st.total));
  }
  // RTS frames fan out serialized like eager sends (they are ordinary
  // messages), but they are tiny: no payload-copy term.
  const sim::Time quantum = self_.machine().costs().iccl_msg_handle;
  const sim::Time now = self_.sim().now();
  sim::Time cursor = 0;
  for (auto& [rank, ch] : node_.children()) {
    st.cts_pending.insert(rank);
    cluster::ChannelPtr child = ch;
    count_mux(tag, "rts_sent");
    self_.post(cluster::send_departure(cursor, now, quantum) - now,
               [this, child, tag, nchunks = st.nchunks, total = st.total] {
                 ByteWriter w;
                 w.u32(total);
                 self_.send(child,
                            encode_frame(Kind::RndvRts, tag, params_.rank,
                                         {{nchunks, std::move(w).take()}}));
               });
  }
}

void Iccl::handle_rndv_rts(StreamKey tag, std::uint32_t nchunks,
                           std::uint32_t total) {
  // Heal replay of a round this node already delivered: ignore it rather
  // than re-opening receive/relay state the subtree already consumed.
  if (node_.heal() && bcast_history_.count(tag) != 0) return;
  DownStream& st = streams_[tag] = DownStream{};
  st.nchunks = nchunks;
  st.total = total;
  st.chunks.reserve(nchunks);  // decode_frame checked it against the total
  st.receiving = true;
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    st.recv_span = tracer->begin_span(
        "iccl.rndv_recv", "iccl", static_cast<int>(self_.node().id()),
        self_.pid(), trace_parent(*tracer),
        "tag=" + tag.str() + " chunks=" + std::to_string(nchunks));
  }
  // Cut-through: open the downstream round now so grandchild CTS exchanges
  // overlap the payload still streaming toward this node.
  if (!node_.children().empty()) stream_announce(tag, st);
  // Clear the parent to stream.
  count_mux(tag, "cts_sent");
  send_up(encode_frame(Kind::RndvCts, tag, params_.rank));
}

void Iccl::handle_rndv_cts(StreamKey tag, std::uint32_t src) {
  auto it = streams_.find(tag);
  if (it == streams_.end() || !it->second.sending) return;
  DownStream& st = it->second;
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    const std::size_t pending =
        st.cts_pending.size() - st.cts_pending.count(src);
    tracer->instant("iccl.cts_received", "iccl",
                    static_cast<int>(self_.node().id()), self_.pid(),
                    st.send_span,
                    "tag=" + tag.str() + " from=" + std::to_string(src) +
                        " pending=" + std::to_string(pending));
  }
  // A reattached orphan cleared its own join: the chunks sent before it did
  // reach it now.
  if (st.parked.count(src) != 0) stream_catch_up(tag, st, src, 0);
  stream_clear(tag, st, src);
}

void Iccl::stream_catch_up(StreamKey tag, const DownStream& st,
                           std::uint32_t child, std::uint32_t from) {
  const Kind kind = st.eager ? Kind::Bcast : Kind::RndvChunk;
  for (std::uint32_t seq = from; seq < st.next_seq; ++seq) {
    send_to_child(child,
                  payload_frame(kind, tag, params_.rank, seq, st.chunks[seq]));
    self_.machine().count("iccl.heal.bcast_replay_bytes",
                          static_cast<double>(st.chunks[seq].size()));
  }
}

void Iccl::stream_clear(StreamKey tag, DownStream& st, std::uint32_t child) {
  st.cts_pending.erase(child);
  const bool unparked = st.parked.erase(child) != 0;
  if (!st.streaming && st.cts_pending.empty()) {
    st.streaming = true;
  } else if (!unparked) {
    return;
  }
  stream_flush(tag, st);
  if (!st.sending && !st.receiving) streams_.erase(tag);
}

void Iccl::stream_flush(StreamKey tag, DownStream& st) {
  if (!st.streaming) return;
  while (st.next_seq < st.chunks.size()) {
    const std::uint32_t seq = st.next_seq++;
    stream_send(tag, st, seq, st.chunks[seq]);
  }
  if (st.sending && st.next_seq == st.nchunks && st.parked.empty()) {
    if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
      tracer->end_span(st.send_span);
    }
    st.sending = false;
  }
}

void Iccl::stream_send(StreamKey tag, DownStream& st, std::uint32_t seq,
                       const ByteSlice& chunk) {
  // Serialized posts: each (chunk, child) send occupies the CPU for one
  // quantum. An eager frame's quantum stretches with the payload (the
  // simulated per-child copy into the send buffer); a rendezvous chunk
  // goes out of the one registered payload buffer for a flat chunk-handle
  // quantum. Levels overlap because a relay forwards chunk j while its
  // parent still streams j+1.
  const auto& costs = self_.machine().costs();
  const Kind kind = st.eager ? Kind::Bcast : Kind::RndvChunk;
  const sim::Time occ =
      st.eager ? costs.iccl_msg_handle +
                     costs.eager_copy_cost(static_cast<double>(chunk.size()))
               : costs.iccl_chunk_handle;
  const sim::Time now = self_.sim().now();
  for (auto& [rank, ch] : node_.children()) {
    if (st.parked.count(rank) != 0) continue;
    cluster::ChannelPtr child = ch;
    self_.post(cluster::send_departure(st.cursor, now, occ) - now,
               [this, child, kind, tag, seq, chunk] {
                 self_.send(child, payload_frame(kind, tag, params_.rank, seq,
                                                 chunk));
               });
  }
}

void Iccl::handle_rndv_chunk(StreamKey tag, std::uint32_t seq,
                             ByteSlice data) {
  auto it = streams_.find(tag);
  if (it == streams_.end() || !it->second.receiving) return;
  DownStream& st = it->second;
  if (seq != st.chunks.size()) return;  // FIFO channels make this unreachable
  st.chunks.push_back(std::move(data));
  count_mux(tag, "chunks_received");
  // Relay toward this node's own children (cut-through forwarding).
  if (st.sending) {
    count_mux(tag, "chunks_relayed");
    if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
      tracer->instant("iccl.chunk_relay", "iccl",
                      static_cast<int>(self_.node().id()), self_.pid(),
                      st.send_span,
                      "tag=" + tag.str() + " seq=" + std::to_string(seq));
    }
    stream_flush(tag, st);
  }
  if (st.chunks.size() < st.nchunks) return;
  SliceJoin join;
  for (const ByteSlice& chunk : st.chunks) join.append(chunk);
  const ByteSlice payload = join.join();
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->end_span(st.recv_span, "bytes=" + std::to_string(payload.size()));
  }
  st.receiving = false;
  if (!st.sending) streams_.erase(it);
  if (node_.heal()) heal_record_bcast(tag, payload);
  deliver_bcast(tag, payload);
}

void Iccl::on_child_lost(std::uint32_t lost, bool /*was_ready*/) {
  self_.machine().count("iccl.children_lost");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("iccl.child_lost", "iccl",
                    static_cast<int>(self_.node().id()), self_.pid(),
                    obs::kNoSpan,
                    "child rank " + std::to_string(lost) + " lost");
  }
  // Any rendezvous round still waiting on the dead child's CTS must not
  // stall the surviving children.
  for (auto it = streams_.begin(); it != streams_.end();) {
    const StreamKey tag = it->first;
    if (it->second.sending) stream_clear(tag, it->second, lost);
    it = streams_.upper_bound(tag);  // the clearance may erase the entry
  }
  // Heal mode: do not drop the dead child's subtree yet. Open a heal slot
  // and give its orphans a grace window to reattach; only what stays
  // unclaimed when the slot resolves is retracted. A loss before ready has
  // already failed the latch, so this holds for it too.
  if (node_.heal() && node_.ready_fired()) {
    heal_child_lost(lost);
    return;
  }
  gather_forget(lost);
}

Iccl::GatherState& Iccl::gather_state(StreamKey tag) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end()) {
    GatherState st;
    // Seed from the *live* children: a child that already died must not be
    // waited for (its whole subtree's contributions are gone with it).
    for (const auto& [rank, ch] : node_.children()) {
      st.children_pending.insert(rank);
    }
    // Open heal slots gate new rounds too: the dead child's orphans may
    // reattach and contribute to this round before the slot resolves.
    for (const auto& [dead, slot] : heal_slots_) st.healing.insert(dead);
    it = gathers_.emplace(tag, std::move(st)).first;
  }
  return it->second;
}

void Iccl::contribute(StreamKey tag, Bytes data) {
  GatherState& st = gather_state(tag);
  assert(!st.own_done && "one contribution per rank per gather round");
  st.own_done = true;
  // Injected-once accounting: gather payload enters the fabric exactly here
  // (relay hops count iccl.gather_bytes_relayed instead; see metrics.hpp).
  count_mux(tag, "gather_contributions");
  count_mux(tag, "gather_bytes_contributed",
            static_cast<double>(data.size()));
  // From here on the contribution is one shared buffer: rendezvous chunks
  // and heal copies are views of it.
  gather_keep(st, params_.rank,
              ByteSlice(std::make_shared<const Bytes>(std::move(data))));
  gather_advance(tag);
}

void Iccl::handle_gather_up(StreamKey tag, std::uint32_t src,
                            Entries entries) {
  GatherState& st = gather_state(tag);
  st.children_pending.erase(src);
  for (const auto& [origin, data] : entries) {
    // A reattached orphan re-sends its eager accumulation: keep only the
    // origins this node has not seen yet (a prior partial path may have
    // delivered some already via a different route).
    if (node_.heal() && st.origins.count(origin) != 0) continue;
    gather_keep(st, origin, data);
  }
  gather_advance(tag);
}

void Iccl::gather_keep(GatherState& st, std::uint32_t origin,
                       const ByteSlice& data) {
  Origin& o = st.origins[origin];
  o.owner = params_.rank;
  o.total = static_cast<std::uint32_t>(data.size());
  gather_take(o, data, /*keep=*/true);
}

void Iccl::gather_take(Origin& o, const ByteSlice& data, bool keep) {
  o.got += static_cast<std::uint32_t>(data.size());
  if (is_root()) {
    if (o.copy.empty()) o.copy.reserve(o.total);
    o.copy.insert(o.copy.end(), data.begin(), data.end());
  } else if (keep) {
    o.kept.append(data);
  }
}

std::size_t Iccl::gather_subtree_bytes(const GatherState& st) const {
  std::size_t total = 0;
  for (const auto& [origin, o] : st.origins) {
    if (!o.dropped) total += o.total;
  }
  return total;
}

void Iccl::gather_advance(StreamKey tag) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end()) return;
  GatherState& st = it->second;
  if (st.retired || !st.own_done || !st.children_pending.empty() ||
      !st.healing.empty()) {
    return;
  }
  if (!is_root() && !st.announced) {
    // Protocol decision on the *subtree total*: any rendezvous child implies
    // the subtree already crossed the threshold (totals are monotone up the
    // tree), so the eager branch only ever carries whole entries.
    if (!st.rndv_children.empty() ||
        use_rendezvous(gather_subtree_bytes(st))) {
      gather_announce(tag, st);
    } else {
      send_up(gather_origins_frame(Kind::GatherUp, tag, st,
                                   /*with_dropped=*/false));
      gather_finish(tag, st);
    }
    return;
  }
  // An announced relay still has bytes to move while it waits for its CTS
  // or its resume offsets. Then, like the root, it is done once no child
  // owes bytes: every origin a child announced is complete here.
  if (st.announced && (!st.streaming || st.heal_hold)) return;
  for (const auto& [origin, o] : st.origins) {
    if (o.owner != params_.rank && o.got != o.total) return;
  }
  if (!is_root()) {
    // Every chunk this subtree announced is scheduled (posted sends keep
    // their own views).
    gather_finish(tag, st);
    return;
  }
  // The root's one copy of each origin is the buffer it hands out. Zero-byte
  // origins stream nothing; they still contributed.
  std::vector<std::pair<std::uint32_t, Bytes>> out;
  out.reserve(st.origins.size());
  for (auto& [origin, o] : st.origins) {
    if (!o.dropped) out.emplace_back(origin, std::move(o.copy));
  }
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->end_span(st.span, "entries=" + std::to_string(out.size()));
  }
  mux_release(tag);
  if (node_.heal()) {
    // Tell the tree the round is over so retired replay copies can be freed
    // and a late-reattaching orphan does not re-announce a delivered round.
    for (auto& [rank, ch] : node_.children()) {
      self_.send(ch, encode_frame(Kind::GatherDone, tag, params_.rank));
    }
  }
  gather_finish(tag, st);
  deliver_gather(tag, std::move(out));
}

void Iccl::gather_finish(StreamKey tag, GatherState& st) {
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->end_span(st.span);
  }
  st.span = obs::kNoSpan;
  if (!node_.heal()) {
    gathers_.erase(tag);  // allow reuse of the tag
    return;
  }
  // Heal mode retires the round instead: a reparent may still re-announce
  // or resume it until the root's GatherDone. Bounded by the ring.
  st.retired = true;
  st.heal_hold = false;
  st.outq.clear();
  st.next_out = 0;
  if (std::find(retired_gather_order_.begin(), retired_gather_order_.end(),
                tag) == retired_gather_order_.end()) {
    retired_gather_order_.push_back(tag);
  }
  while (retired_gather_order_.size() > kHealHistory) {
    const StreamKey old = retired_gather_order_.front();
    retired_gather_order_.erase(retired_gather_order_.begin());
    auto it = gathers_.find(old);
    if (it != gathers_.end() && it->second.retired) gathers_.erase(it);
  }
}

// --- rendezvous gather (upstream RTS/CTS + cut-through chunk relay) ------

void Iccl::gather_announce(StreamKey tag, GatherState& st) {
  st.announced = true;
  count_mux(tag, "gather_rts_sent");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    const auto live =
        std::count_if(st.origins.begin(), st.origins.end(),
                      [](const auto& e) { return !e.second.dropped; });
    st.span = tracer->begin_span(
        "iccl.gather_stream", "iccl", static_cast<int>(self_.node().id()),
        self_.pid(), trace_parent(*tracer),
        "tag=" + tag.str() + " origins=" + std::to_string(live) +
            " bytes=" + std::to_string(gather_subtree_bytes(st)));
  }
  send_up(gather_origins_frame(Kind::GatherRts, tag, st,
                               /*with_dropped=*/false));
}

cluster::Message Iccl::gather_origins_frame(Kind kind, StreamKey tag,
                                            GatherState& st,
                                            bool with_dropped) {
  const bool whole = kind == Kind::GatherUp;
  std::size_t count = 0;
  std::size_t size = kFrameHeaderBytes;
  for (const auto& [origin, o] : st.origins) {
    if (o.dropped && !with_dropped) continue;
    ++count;
    size += whole ? kEntryHeaderBytes + o.kept.size() : kTotalEntryBytes;
  }
  ByteWriter w(size);
  write_frame_header(w, kind, tag, params_.rank, count);
  for (auto& [origin, o] : st.origins) {
    if (o.dropped && !with_dropped) continue;
    w.u32(origin);
    if (whole) {
      w.blob(o.kept.join().span());
    } else {
      w.u32(sizeof(o.total));
      w.u32(o.total);
    }
  }
  return cluster::Message(std::move(w).take());
}

void Iccl::handle_gather_rts(StreamKey tag, std::uint32_t src,
                             const Entries& entries) {
  GatherState& st = gather_state(tag);
  st.children_pending.erase(src);
  st.rndv_children.insert(src);
  // The child owes every origin it lists. A heal re-announce (a reattached
  // orphan repeating its RTS) names origins this node already knows: their
  // progress here survives it, and the orphan resumes each from there.
  bool reannounce = false;
  for (const auto& [origin, blob] : entries) {
    auto [o, fresh] = st.origins.try_emplace(origin);
    o->second.owner = src;
    if (fresh) {
      o->second.total = ByteReader(blob.span()).u32().value_or(0);
    } else {
      reannounce = true;
    }
  }
  if (node_.heal() && node_.ready_fired() && heal_slots_.count(src) != 0) {
    // The announce raced this child's own death (frames already in the
    // per-direction FIFO when the link dropped). The heal slot owns the
    // cleanup; just make this round wait for the slot's resolution.
    st.healing.insert(src);
    gather_advance(tag);
    return;
  }
  if (node_.children().count(src) == 0) {
    // The announce was still in flight when the child's link died: the
    // lost-child sweep found nothing to drop, and a CTS would go into a
    // void. Drop the announced-but-unstreamed origins right now instead of
    // waiting for chunks that can never arrive.
    gather_forget(src);
    return;
  }
  if (reannounce && (is_root() || st.streaming)) {
    // Resume subsumes CTS: the orphan continues each origin from the byte
    // offset this node already has, never restarts - so it gets a
    // GatherResume instead of a normal CTS. A retired round answers with
    // offset == size: nothing to re-send.
    std::vector<std::pair<std::uint32_t, Bytes>> resume;
    resume.reserve(entries.size());
    for (const auto& [origin, blob] : entries) {
      const Origin& o = st.origins.at(origin);
      ByteWriter w;
      w.u32(st.retired ? o.total : o.got);
      resume.emplace_back(origin, std::move(w).take());
    }
    self_.machine().count("iccl.heal.gather_resumes_sent");
    send_to_child(src,
                  encode_frame(Kind::GatherResume, tag, params_.rank, resume));
  } else if (is_root()) {
    // The root is the sink: clear this child the moment its announce is
    // processed (no upstream clearance to wait for). Interior nodes instead
    // defer their children's CTS until their own arrives - that chain is
    // the back-pressure that keeps a slow parent from being buried.
    //
    // On a multiplexed tree the clearance is also the fairness gate: with
    // several sessions contending, at most one session's rounds stream at a
    // time and the root hands the clearance round-robin across sessions on
    // round delivery. A single active session always clears immediately.
    if (obs::Tracer* tracer = self_.machine().tracer();
        tracer != nullptr && st.span == obs::kNoSpan) {
      st.span = tracer->begin_span(
          "iccl.gather_assemble", "iccl", static_cast<int>(self_.node().id()),
          self_.pid(), trace_parent(*tracer), "tag=" + tag.str());
    }
    if (st.cleared || mux_can_clear(tag.session)) {
      mux_mark_cleared(tag, st);
      count_mux(tag, "gather_cts_sent");
      send_to_child(src,
                    encode_frame(Kind::GatherCts, tag, params_.rank));
    } else {
      st.grant_waiters.push_back(src);
      count_mux(tag, "mux.cts_deferred");
    }
  }
  gather_advance(tag);
}

void Iccl::handle_gather_cts(StreamKey tag) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end()) return;
  GatherState& st = it->second;
  if (!st.announced || st.streaming) return;
  gather_begin_streaming(tag, st);
  gather_flush(tag, st);
  gather_advance(tag);
}

void Iccl::gather_begin_streaming(StreamKey tag, GatherState& st) {
  st.streaming = true;
  // Clear own rendezvous children (ascending rank; CTS frames are ordinary
  // staggered sends). All children announced before this node did, so the
  // set is final.
  const sim::Time quantum = self_.machine().costs().iccl_msg_handle;
  const sim::Time now = self_.sim().now();
  sim::Time cursor = 0;
  for (std::uint32_t child : st.rndv_children) {
    count_mux(tag, "gather_cts_sent");
    self_.post(cluster::send_departure(cursor, now, quantum) - now,
               [this, child, tag] {
                 send_to_child(child,
                               encode_frame(Kind::GatherCts, tag, params_.rank));
               });
  }
  // Queue the entries held whole here as chunks (rank order); relayed chunks
  // join the queue behind them as they trickle in. Outside heal mode the
  // queue's views are the only ones this node keeps.
  for (auto& [origin, o] : st.origins) {
    if (o.owner != params_.rank) continue;
    each_chunk(o.kept.join(), 0, [&st, origin = origin](ByteSlice c) {
      st.outq.emplace_back(origin, std::move(c));
    });
    if (!node_.heal()) o.kept = SliceJoin{};
  }
}

void Iccl::gather_flush(StreamKey tag, GatherState& st) {
  if (!st.streaming || st.heal_hold) return;
  // Serialized chunk posts, same cursor discipline as the downstream
  // rendezvous: each send occupies the CPU for one chunk-handle quantum and
  // goes out of a registered buffer (no per-byte copy).
  const sim::Time occ = self_.machine().costs().iccl_chunk_handle;
  // Heal mode pins each posted send to the parent link that existed at
  // schedule time: a chunk scheduled before an adoption must die with the
  // old link, not leak onto the new parent at a stale offset (the resume
  // handshake re-sends it at the right position instead).
  cluster::ChannelPtr up = node_.heal() ? node_.parent() : nullptr;
  const sim::Time now = self_.sim().now();
  while (st.next_out < st.outq.size()) {
    auto& [origin, chunk] = st.outq[st.next_out++];
    const sim::Time delay = cluster::send_departure(st.cursor, now, occ) - now;
    if (node_.heal()) {
      self_.post(delay,
                 [this, up, tag, origin = origin, chunk = std::move(chunk)] {
                   if (up != nullptr) {
                     self_.send(up, payload_frame(Kind::GatherChunk, tag,
                                                  params_.rank, origin,
                                                  chunk));
                   }
                 });
    } else {
      self_.post(delay,
                 [this, tag, origin = origin, chunk = std::move(chunk)] {
                   send_up(payload_frame(Kind::GatherChunk, tag,
                                         params_.rank, origin, chunk));
                 });
    }
  }
}

void Iccl::handle_gather_chunk(StreamKey tag, std::uint32_t origin,
                               ByteSlice data) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end()) return;  // round retired (late chunk after drop)
  GatherState& st = it->second;
  // An origin nobody announced here (an eager frame from a child that died
  // after this node's announce) is held here: no child owes it, so the
  // round does not wait for it, but its bytes still go up.
  auto [entry, unannounced] = st.origins.try_emplace(origin);
  Origin& o = entry->second;
  if (unannounced) o.owner = params_.rank;
  if (o.dropped) return;
  count_mux(tag, "gather_chunks_received");
  if (is_root()) {
    // The root's one copy of this origin: into the buffer it hands out,
    // reserved once from the announce.
    gather_take(o, data, /*keep=*/false);
  } else {
    // Cut-through relay: forward the chunk as-is instead of assembling the
    // child's contribution. These bytes were already counted as contributed
    // at their origin; here they count only as relay traffic.
    count_mux(tag, "gather_chunks_relayed");
    count_mux(tag, "gather_bytes_relayed", static_cast<double>(data.size()));
    if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
      tracer->instant("iccl.gather_chunk_relay", "iccl",
                      static_cast<int>(self_.node().id()), self_.pid(),
                      st.span,
                      "tag=" + tag.str() +
                          " origin=" + std::to_string(origin) +
                          " bytes=" + std::to_string(data.size()));
    }
    // Heal mode keeps relayed bytes so a future reparent can re-stream them
    // from this node's own view (the resume handshake asks for an offset).
    gather_take(o, data, /*keep=*/node_.heal());
    st.outq.emplace_back(origin, std::move(data));
    gather_flush(tag, st);
  }
  gather_advance(tag);
}

void Iccl::gather_forget(std::uint32_t child) {
  for (auto it = gathers_.begin(); it != gathers_.end();) {
    const StreamKey tag = it->first;
    GatherState& st = it->second;
    bool touched = st.healing.erase(child) != 0;
    touched = st.children_pending.erase(child) != 0 || touched;
    if (st.rndv_children.erase(child) != 0) {
      touched = true;
      for (auto& [origin, o] : st.origins) {
        if (o.owner == child && o.got != o.total) {
          gather_drop_origin(tag, st, origin);
        }
      }
    }
    if (!touched) {
      ++it;
      continue;
    }
    // May announce, forward an eager frame, deliver at the root, or retire
    // a relay - all of which can erase the state.
    gather_advance(tag);
    it = gathers_.upper_bound(tag);
  }
}

void Iccl::gather_drop_origin(StreamKey tag, GatherState& st,
                              std::uint32_t origin) {
  // A dropped origin counts as complete: nothing more is waited for,
  // delivered or re-sent. A drop for an origin this node never heard of
  // still goes up: the announce that named it may be the one that raced.
  Origin& o = st.origins[origin];
  if (o.dropped) return;
  o.dropped = true;
  o.got = o.total;
  o.copy = Bytes{};
  count_mux(tag, "gather_drops");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("iccl.gather_drop", "iccl",
                    static_cast<int>(self_.node().id()), self_.pid(),
                    obs::kNoSpan,
                    "gather tag " + tag.str() + " dropped origin " +
                        std::to_string(origin));
  }
  // The parent knows about an announced origin; retract it. The drop frame
  // may overtake chunks still queued behind the cursor - receivers ignore
  // chunks for dropped origins, so the race is benign. Before the announce
  // the parent never hears of it at all.
  if (st.announced) {
    send_up(encode_frame(Kind::GatherDrop, tag, params_.rank,
                         {{origin, Bytes{}}}));
  }
}

void Iccl::handle_gather_drop(StreamKey tag, const Entries& entries) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end()) return;
  for (const auto& [origin, unused] : entries) {
    gather_drop_origin(tag, it->second, origin);
  }
  gather_advance(tag);
}

void Iccl::scatter(StreamKey tag, std::vector<Bytes> parts) {
  assert(is_root());
  Entries entries;
  entries.reserve(parts.size());
  for (std::uint32_t r = 0; r < parts.size(); ++r) {
    entries.emplace_back(
        r, ByteSlice(std::make_shared<const Bytes>(std::move(parts[r]))));
  }
  handle_scatter(tag, std::move(entries));
}

void Iccl::handle_scatter(StreamKey tag, Entries entries) {
  // Partition by child subtree; deliver own part locally. Child sends go
  // through the same serialized-send path as broadcast so that collectives
  // issued in one event preserve their issue order on the wire. The
  // subtrees partition the ranks, so each entry is *moved* into exactly one
  // child's part (no per-level payload copies); the serialized quantum
  // still charges the copy into that child's send buffer.
  const auto& costs = self_.machine().costs();
  const sim::Time now = self_.sim().now();
  sim::Time cursor = 0;
  for (auto& [child, link] : node_.children()) {
    auto sub = topo_.subtree_of(child);
    Entries part;
    std::size_t part_bytes = 0;
    for (auto& [rank, data] : entries) {
      if (std::binary_search(sub.begin(), sub.end(), rank)) {
        part_bytes += data.size();
        part.emplace_back(rank, std::move(data));
      }
    }
    if (!part.empty()) {
      cluster::Message m = encode_frame(Kind::Scatter, tag, params_.rank, part);
      const sim::Time occ =
          costs.iccl_msg_handle +
          costs.eager_copy_cost(static_cast<double>(part_bytes));
      self_.post(cluster::send_departure(cursor, now, occ) - now,
                 [this, child, m = std::move(m)]() mutable {
                   send_to_child(child, std::move(m));
                 });
    }
  }
  for (auto& [rank, data] : entries) {
    if (rank == params_.rank) deliver_scatter(tag, data);
  }
}

// --- self-healing recovery (heal mode only) -------------------------------

void Iccl::heal_record_bcast(StreamKey tag, const ByteSlice& payload) {
  if (!bcast_history_.emplace(tag, payload).second) return;
  bcast_history_order_.push_back(tag);
  while (bcast_history_order_.size() > kHealHistory) {
    bcast_history_.erase(bcast_history_order_.front());
    bcast_history_order_.erase(bcast_history_order_.begin());
  }
}

void Iccl::heal_child_lost(std::uint32_t lost) {
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("iccl.heal.slot_opened", "iccl",
                    static_cast<int>(self_.node().id()), self_.pid(),
                    obs::kNoSpan,
                    "heal: child rank " + std::to_string(lost) +
                        " died; holding its subtree's stake for orphan "
                        "reattach");
  }
  // Open (or join) the adoption slot, and suspend the dead child's stake in
  // every open gather round until the slot resolves.
  const bool fresh = heal_slots_.count(lost) == 0;
  if (fresh) {
    heal_slots_[lost];
    self_.machine().count("iccl.heal.slots_opened");
  }
  for (auto& [tag, st] : gathers_) {
    if (st.retired) continue;
    if (st.children_pending.erase(lost) != 0 ||
        st.rndv_children.count(lost) != 0) {
      st.healing.insert(lost);
    }
  }
  heal_check_slot(lost);
  if (fresh && heal_slots_.count(lost) != 0) {
    self_.post(heal_grace_, [this, lost] {
      if (heal_slots_.count(lost) == 0) return;
      self_.machine().count("iccl.heal.grace_expired");
      heal_resolve_slot(lost, /*expired=*/true);
    });
  }
}

void Iccl::heal_check_slot(std::uint32_t dead) {
  auto it = heal_slots_.find(dead);
  if (it == heal_slots_.end()) return;
  const HealSlot& slot = it->second;
  // The slot resolves early once every rank under the dead child is
  // accounted for: reattached here (or under a reattached orphan), or
  // reported dead on some orphan's climb path. A dead leaf resolves in the
  // same event it was lost - its subtree is just itself.
  for (std::uint32_t r : topo_.subtree_of(dead)) {
    if (r == dead || slot.reported_dead.count(r) != 0) continue;
    bool claimed = false;
    for (std::uint32_t c : slot.claimed) {
      const auto sub = topo_.subtree_of(c);
      if (std::binary_search(sub.begin(), sub.end(), r)) {
        claimed = true;
        break;
      }
    }
    if (!claimed) return;
  }
  heal_resolve_slot(dead, /*expired=*/false);
}

void Iccl::heal_resolve_slot(std::uint32_t dead, bool expired) {
  heal_slots_.erase(dead);
  self_.machine().count("iccl.heal.slots_resolved");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("iccl.heal.slot_resolved", "iccl",
                    static_cast<int>(self_.node().id()), self_.pid(),
                    obs::kNoSpan,
                    "heal: slot for dead child " + std::to_string(dead) +
                        (expired ? " resolved by grace expiry"
                                 : " resolved by coverage"));
  }
  // Whatever stake of the dead child's subtree was not claimed by a
  // reattached orphan is now retracted, exactly like the non-heal path.
  gather_forget(dead);
}

void Iccl::on_orphaned() {
  // Freeze upstream gather streaming: chunks must not race ahead of the
  // per-origin resume offsets the adopter will dictate.
  for (auto& [tag, st] : gathers_) {
    if (!st.retired && st.announced && st.streaming) st.heal_hold = true;
  }
}

void Iccl::on_linked(const cluster::ChannelPtr& parent, bool adopted) {
  if (!adopted) {
    self_.send(parent, encode_frame(Kind::Register, 0, params_.rank));
    return;
  }
  // One Reattach frame carries everything the adopter needs: the dead
  // ancestors seen on the climb, the delivered-broadcast ring (duplicate
  // suppression baseline) and per-round receive offsets for catch-up.
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(node_.climb_via().size()));
  for (std::uint32_t r : node_.climb_via()) w.u32(r);
  w.u32(static_cast<std::uint32_t>(bcast_history_order_.size()));
  for (const StreamKey& t : bcast_history_order_) {
    w.u32(t.session);
    w.u32(t.tag);
  }
  w.u32(static_cast<std::uint32_t>(
      std::count_if(streams_.begin(), streams_.end(),
                    [](const auto& e) { return e.second.receiving; })));
  for (const auto& [tag, st] : streams_) {
    if (!st.receiving) continue;
    w.u32(tag.session);
    w.u32(tag.tag);
    w.u32(static_cast<std::uint32_t>(st.chunks.size()));
    w.u32(st.nchunks);
  }
  self_.send(parent, encode_frame(Kind::Reattach, 0, params_.rank,
                                  {{0, std::move(w).take()}}));
  heal_send_reannounces();
}

void Iccl::heal_send_reannounces() {
  for (auto& [tag, st] : gathers_) {
    // An eager round that already went up re-sends its combined frame (it
    // may have died in the old parent's inbox; the receiver keeps only the
    // origins it has not seen). A rendezvous round, mid-stream or retired,
    // repeats its RTS with every origin this subtree owns. Dropped origins
    // stay listed - their retraction follows at once so the adopter's table
    // matches.
    const bool eager = st.retired && !st.announced;
    if (!eager && !st.announced) continue;
    self_.machine().count("iccl.heal.gather_reannounces");
    send_up(gather_origins_frame(eager ? Kind::GatherUp : Kind::GatherRts,
                                 tag, st, /*with_dropped=*/!eager));
    std::vector<std::pair<std::uint32_t, Bytes>> drops;
    for (const auto& [origin, o] : st.origins) {
      if (o.dropped) drops.emplace_back(origin, Bytes{});
    }
    if (!drops.empty()) {
      send_up(encode_frame(Kind::GatherDrop, tag, params_.rank, drops));
    }
  }
}

void Iccl::handle_reattach(const cluster::ChannelPtr& ch, std::uint32_t src,
                           const ByteSlice& blob) {
  ByteReader r(blob.span());
  std::set<std::uint32_t> via;
  const std::uint32_t nvia = r.u32().value_or(0);
  for (std::uint32_t i = 0; i < nvia; ++i) via.insert(r.u32().value_or(0));
  std::set<StreamKey> delivered;
  const std::uint32_t ndel = r.u32().value_or(0);
  for (std::uint32_t i = 0; i < ndel; ++i) {
    const std::uint32_t session = r.u32().value_or(0);
    const std::uint32_t t = r.u32().value_or(0);
    delivered.insert(StreamKey{session, t});
  }
  std::map<StreamKey, std::uint32_t> open;  ///< key -> chunks received
  const std::uint32_t nrecv = r.u32().value_or(0);
  for (std::uint32_t i = 0; i < nrecv; ++i) {
    const std::uint32_t session = r.u32().value_or(0);
    const std::uint32_t t = r.u32().value_or(0);
    open[StreamKey{session, t}] = r.u32().value_or(0);
    (void)r.u32();  // nchunks: the replay takes it from its own copy
  }
  node_.add_child(src, ch);
  self_.machine().count("iccl.heal.adoptions");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("iccl.heal.adoption", "iccl",
                    static_cast<int>(self_.node().id()), self_.pid(),
                    obs::kNoSpan,
                    "heal: adopted orphan rank " + std::to_string(src) +
                        " (climbed past " + std::to_string(via.size()) +
                        " dead)");
  }
  // Which of this node's dead children does the orphan descend from? Walk
  // the orphan's topology ancestor chain until it meets this rank.
  std::uint32_t dead_child = src;
  for (auto up = topo_.parent_of(dead_child); up && *up != params_.rank;
       up = topo_.parent_of(dead_child)) {
    dead_child = *up;
  }
  auto slot_it = heal_slots_.find(dead_child);
  if (slot_it == heal_slots_.end()) {
    // The orphan's Reattach beat this node's own notice of the child's
    // death (close callbacks pay a link latency). Open the slot now; the
    // close handler's sweep finds it already open.
    slot_it = heal_slots_.emplace(dead_child, HealSlot{}).first;
    self_.machine().count("iccl.heal.slots_opened");
    self_.post(heal_grace_, [this, dead_child] {
      if (heal_slots_.count(dead_child) == 0) return;
      self_.machine().count("iccl.heal.grace_expired");
      heal_resolve_slot(dead_child, /*expired=*/true);
    });
  }
  slot_it->second.claimed.insert(src);
  for (std::uint32_t v : via) {
    if (v != params_.rank) slot_it->second.reported_dead.insert(v);
  }
  // Transfer the orphan's subtree share of the dead child's gather stake:
  // announced origins under the orphan belong to its re-announce now, and
  // rounds suspended on the dead child wait for the orphan instead.
  const auto osub = topo_.subtree_of(src);
  for (auto& [tag, st] : gathers_) {
    if (st.healing.count(dead_child) != 0) st.children_pending.insert(src);
    if (st.rndv_children.count(dead_child) == 0) continue;
    for (auto& [origin, o] : st.origins) {
      if (o.owner == dead_child &&
          std::binary_search(osub.begin(), osub.end(), origin)) {
        o.owner = src;
        st.rndv_children.insert(src);
      }
    }
  }
  heal_replay_bcasts(src, open, delivered);
  heal_check_slot(dead_child);
}

void Iccl::heal_replay_bcasts(
    std::uint32_t orphan, const std::map<StreamKey, std::uint32_t>& open_recvs,
    const std::set<StreamKey>& delivered) {
  auto live = [this](StreamKey tag) {
    auto it = streams_.find(tag);
    return it != streams_.end() && it->second.sending;
  };
  // Each round restarts at the orphan's receive offset. A rendezvous round
  // the orphan never saw gets its RTS alone, and the orphan is parked on
  // the stream until its own CTS, so that no chunk can overtake the RTS. A
  // missed eager round is the one-chunk case: a single Bcast frame. The
  // orphan's own history guard makes a replay of a delivered round inert.
  auto replay = [&](StreamKey tag, DownStream& st) {
    self_.machine().count("iccl.heal.bcast_replays");
    auto open = open_recvs.find(tag);
    if (open == open_recvs.end() && !st.eager) {
      ByteWriter w;
      w.u32(st.total);
      send_to_child(orphan, encode_frame(Kind::RndvRts, tag, params_.rank,
                                         {{st.nchunks, std::move(w).take()}}));
      st.parked.insert(orphan);
      return;
    }
    stream_catch_up(tag, st, orphan,
                    open != open_recvs.end() ? open->second : 0);
  };
  // Live streams first: the orphan is a child now, so chunks sent after
  // this event reach it natively and in order. Then delivered rounds it
  // missed entirely, or was mid-receive on when the live state here had
  // already retired. Such a round replays from a send-only entry with
  // every chunk sent, kept in `streams_` only while an orphan is parked on
  // it.
  for (auto& [tag, st] : streams_) {
    if (st.sending && delivered.count(tag) == 0) replay(tag, st);
  }
  for (StreamKey tag : bcast_history_order_) {
    if (delivered.count(tag) != 0 || live(tag)) continue;
    const ByteSlice& payload = bcast_history_.at(tag);
    DownStream round;
    round.eager = open_recvs.count(tag) == 0 && !use_rendezvous(payload.size());
    if (round.eager) {
      round.chunks.push_back(payload);
      round.nchunks = 1;
    } else {
      stream_load(round, payload);
    }
    round.next_seq = round.nchunks;
    round.sending = true;
    round.streaming = true;
    replay(tag, round);
    if (!round.parked.empty()) streams_.emplace(tag, std::move(round));
  }
  // Anything the orphan was mid-receive on that this node can no longer
  // source (evicted from the ring) stays incomplete there; surface it.
  for (const auto& [tag, received] : open_recvs) {
    if (delivered.count(tag) != 0 || live(tag) ||
        bcast_history_.count(tag) != 0) {
      continue;
    }
    if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
      tracer->instant("iccl.heal.replay_evicted", "iccl",
                      static_cast<int>(self_.node().id()), self_.pid(),
                      obs::kNoSpan,
                      "heal: cannot replay bcast tag " + tag.str() +
                          " for orphan " + std::to_string(orphan) +
                          " (history evicted)");
    }
  }
}

void Iccl::handle_gather_resume(StreamKey tag, const Entries& entries) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end()) return;
  GatherState& st = it->second;
  if (!st.announced) return;
  st.heal_hold = false;
  st.retired = false;  // a retired relay may need to re-send; re-retires below
  if (!st.streaming) gather_begin_streaming(tag, st);
  self_.machine().count("iccl.heal.gather_resumes");
  for (const auto& [origin, blob] : entries) {
    const std::uint32_t from = ByteReader(blob.span()).u32().value_or(0);
    // Unscheduled queue entries for this origin are superseded: the kept
    // view re-queued below covers them from the adopter's offset.
    st.outq.erase(
        std::remove_if(
            st.outq.begin() + static_cast<std::ptrdiff_t>(st.next_out),
            st.outq.end(),
            [origin = origin](const auto& e) { return e.first == origin; }),
        st.outq.end());
    auto o = st.origins.find(origin);
    if (o == st.origins.end()) continue;
    each_chunk(o->second.kept.join(), from,
               [this, &st, origin = origin](ByteSlice c) {
                 self_.machine().count("iccl.heal.gather_requeued_bytes",
                                       static_cast<double>(c.size()));
                 st.outq.emplace_back(origin, std::move(c));
               });
  }
  gather_flush(tag, st);
  gather_advance(tag);
}

void Iccl::handle_gather_done(StreamKey tag) {
  // Propagate: every descendant can free its replay copy of the round.
  for (auto& [rank, ch] : node_.children()) {
    self_.send(ch, encode_frame(Kind::GatherDone, tag, params_.rank));
  }
  auto it = gathers_.find(tag);
  if (it != gathers_.end()) {
    if (obs::Tracer* tracer = self_.machine().tracer();
        tracer != nullptr && it->second.span != obs::kNoSpan) {
      tracer->end_span(it->second.span);
    }
    gathers_.erase(it);
  }
  retired_gather_order_.erase(std::remove(retired_gather_order_.begin(),
                                          retired_gather_order_.end(), tag),
                              retired_gather_order_.end());
}

void Iccl::leave() {
  if (node_.detached()) return;
  node_.detach();
  self_.machine().count("iccl.heal.leaves");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("iccl.heal.leave", "iccl",
                    static_cast<int>(self_.node().id()), self_.pid(),
                    obs::kNoSpan,
                    "heal: rank " + std::to_string(params_.rank) +
                        " leaving the session");
  }
  send_up(encode_frame(Kind::Leave, 0, params_.rank));
  // Give the frame a head start, then exit. Children notice the closed
  // links and heal onto an ancestor through the normal reparent path.
  self_.post(sim::ms(2), [this] { self_.exit(0); });
}

void Iccl::handle_leave(std::uint32_t src) {
  self_.machine().count("iccl.heal.leaves_observed");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("iccl.heal.left", "iccl",
                    static_cast<int>(self_.node().id()), self_.pid(),
                    obs::kNoSpan,
                    "heal: child rank " + std::to_string(src) +
                        " left gracefully");
  }
  // Run the lost-child bookkeeping now; the close callback that follows
  // finds the rank already erased and no-ops.
  node_.lose_child(src);
}

// --- multiplexed delivery / fairness --------------------------------------

void Iccl::deliver_bcast(StreamKey tag, const ByteSlice& data) {
  auto it = session_handlers_.find(tag.session);
  if (it == session_handlers_.end() || !it->second.on_bcast) {
    self_.machine().count("iccl.mux.unbound_drops");
    return;
  }
  it->second.on_bcast(tag.tag, data);
}

void Iccl::deliver_gather(
    StreamKey tag, std::vector<std::pair<std::uint32_t, Bytes>> entries) {
  auto it = session_handlers_.find(tag.session);
  if (it == session_handlers_.end() || !it->second.on_gather) {
    self_.machine().count("iccl.mux.unbound_drops");
    return;
  }
  it->second.on_gather(tag.tag, std::move(entries));
}

void Iccl::deliver_scatter(StreamKey tag, const ByteSlice& data) {
  auto it = session_handlers_.find(tag.session);
  if (it == session_handlers_.end() || !it->second.on_scatter) {
    self_.machine().count("iccl.mux.unbound_drops");
    return;
  }
  it->second.on_scatter(tag.tag, data);
}

void Iccl::count_mux(StreamKey tag, const char* name, double v) {
  if (self_.machine().metrics() == nullptr) return;
  self_.machine().count(std::string("iccl.") + name, v);
  if (tag.session != 0) {
    self_.machine().count(
        "iccl.s" + std::to_string(tag.session) + "." + name, v);
  }
}

bool Iccl::mux_can_clear(std::uint32_t session) const {
  for (const auto& [s, open] : mux_active_) {
    if (open > 0 && s != session) return false;
  }
  return true;
}

void Iccl::mux_mark_cleared(StreamKey tag, GatherState& st) {
  if (st.cleared) return;
  st.cleared = true;
  mux_active_[tag.session] += 1;
  mux_rr_last_ = tag.session;
  // Announces that queued while another session held the clearance get
  // their CTS now.
  for (std::uint32_t child : st.grant_waiters) {
    count_mux(tag, "gather_cts_sent");
    send_to_child(child,
                  encode_frame(Kind::GatherCts, tag, params_.rank));
  }
  st.grant_waiters.clear();
}

void Iccl::mux_release(StreamKey tag) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end() || !it->second.cleared) return;
  auto act = mux_active_.find(tag.session);
  if (act != mux_active_.end() && --act->second <= 0) mux_active_.erase(act);
  if (!mux_active_.empty()) return;  // the holder still has open rounds
  // Clearance is free: grant the next session with deferred announces,
  // scanning session ids round-robin from the last holder.
  std::map<std::uint32_t, std::vector<StreamKey>> waiting;
  for (const auto& [key, st] : gathers_) {
    if (!st.cleared && !st.grant_waiters.empty()) {
      waiting[key.session].push_back(key);
    }
  }
  if (waiting.empty()) return;
  auto next = waiting.upper_bound(mux_rr_last_);
  if (next == waiting.end()) next = waiting.begin();
  self_.machine().count("iccl.mux.rr_grants");
  for (const StreamKey& key : next->second) {
    mux_mark_cleared(key, gathers_.at(key));
  }
}

void Iccl::send_up(cluster::Message m) {
  if (node_.parent() != nullptr) self_.send(node_.parent(), std::move(m));
}

void Iccl::send_to_child(std::uint32_t child_rank, cluster::Message m) {
  auto it = node_.children().find(child_rank);
  if (it != node_.children().end()) self_.send(it->second, std::move(m));
}

}  // namespace lmon::core
