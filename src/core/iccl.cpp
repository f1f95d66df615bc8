#include "core/iccl.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>

#include "cluster/cost_model_registry.hpp"
#include "cluster/machine.hpp"
#include "simkernel/log.hpp"

namespace lmon::core {

namespace {

using Kind = Iccl::Kind;

/// Frame header: kind (u8), session, tag, src and entry count (u32 each).
constexpr std::size_t kFrameHeaderBytes = 17;
/// Entry header: rank and payload length (u32 each).
constexpr std::size_t kEntryHeaderBytes = 8;

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
  std::size_t size = kFrameHeaderBytes;
  for (const auto& [rank, data] : entries) {
    size += kEntryHeaderBytes + data.size();
  }
  ByteWriter w(size);
  write_frame_header(w, kind, tag, src, entries.size());
  for (const auto& [rank, data] : entries) {
    w.u32(rank);
    w.blob(std::span<const std::uint8_t>(data.data(), data.size()));
  }
  return cluster::Message(std::move(w).take());
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
  ByteWriter w(kFrameHeaderBytes + kEntryHeaderBytes);
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
/// disagrees with the view behind its header.
std::optional<Frame> decode_frame(cluster::Message m) {
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
  if ((payload && *count != 1) || (!payload && !m.view.empty())) {
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
      kFrameHeaderBytes));
  f.entries.reserve(
      std::min<std::size_t>(*count, body.remaining() / kEntryHeaderBytes));
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto rank = body.u32();
    auto data = body.blob_view();
    if (!rank || !data) return std::nullopt;
    const auto offset = static_cast<std::size_t>(data->data() - buf->data());
    f.entries.emplace_back(*rank, ByteSlice(buf, offset, data->size()));
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
      topo_(params_.topology, params_.size) {
  expected_children_ = topo_.children_of(params_.rank);
  // Every node (including leaves) reports SetupUp; we expect one per child.
  setups_pending_ = static_cast<int>(expected_children_.size());
  // Threshold resolution order: an explicit session threshold wins; else the
  // named platform profile's default (so every daemon agrees with the
  // engine-side tuner about what "platform default" means, even when the
  // machine it runs on is calibrated differently); else this machine's costs.
  if (params_.rndv_threshold != 0) {
    rndv_threshold_ = params_.rndv_threshold;
  } else {
    std::optional<cluster::CostModel> profile;
    if (!params_.platform.empty()) {
      profile = cluster::CostModelRegistry::builtin().find(params_.platform);
    }
    rndv_threshold_ = profile
                          ? profile->iccl_rndv_threshold_bytes
                          : self_.machine().costs().iccl_rndv_threshold_bytes;
  }
  if (rndv_threshold_ == 0) rndv_threshold_ = 1;
  heal_ = params_.heal;
  heal_grace_ = params_.heal_grace_ms != 0 ? sim::ms(params_.heal_grace_ms)
                                           : kHealGraceDefault;
  parent_rank_ = topo_.parent_of(params_.rank).value_or(params_.rank);
}

void Iccl::start(std::function<void(Status)> subtree_ready) {
  subtree_ready_ = std::move(subtree_ready);

  // Endpoint initialization cost (socket setup, registration with the
  // RM-provided bootstrap info).
  const sim::Time init_cost = self_.machine().costs().fabric_endpoint_init;
  self_.post(init_cost, [this] {
    if (!expected_children_.empty()) {
      const Status st =
          self_.listen(params_.port, [this](cluster::ChannelPtr ch) {
            // Child link; claim routing, wait for its Register.
            self_.set_channel_handler(
                ch,
                [this](const cluster::ChannelPtr& c, cluster::Message m) {
                  on_fabric_message(c, std::move(m));
                },
                [this](const cluster::ChannelPtr& c) {
                  // A lost child link during launch is fatal for the
                  // session; surface once via the ready callback. After
                  // ready, drop the child from the fan-out so in-flight
                  // rendezvous rounds do not wait on its CTS forever.
                  if (!ready_fired_ && subtree_ready_) {
                    ready_fired_ = true;
                    subtree_ready_(Status(Rc::Esubcom, "fabric child lost"));
                  }
                  on_child_lost(c);
                });
          });
      if (!st.is_ok() && subtree_ready_) {
        ready_fired_ = true;
        subtree_ready_(st);
        return;
      }
    }
    if (is_root()) {
      parent_linked_ = true;
      maybe_subtree_ready();
    } else {
      connect_parent(kConnectRetries);
    }
  });
}

void Iccl::connect_parent(int attempts_left) {
  const auto parent_rank = topo_.parent_of(params_.rank);
  assert(parent_rank.has_value());
  const std::string& host = params_.hosts.at(*parent_rank);
  self_.connect(host, params_.port, [this, attempts_left,
                                     parent_rank = *parent_rank](
                                        Status st, cluster::ChannelPtr ch) {
    if (!st.is_ok()) {
      if (attempts_left > 0) {
        self_.machine().count("iccl.connect_retries");
        if (obs::Tracer* tracer = self_.machine().tracer();
            tracer != nullptr) {
          tracer->instant("iccl.connect_retry", "iccl",
                          static_cast<int>(self_.node().id()), self_.pid(),
                          obs::kNoSpan,
                          "rank=" + std::to_string(params_.rank) +
                              " left=" + std::to_string(attempts_left - 1));
        }
        // Exponential backoff up to a cap: the RM's bulk launch brings all
        // daemons up near-simultaneously, but the ad hoc rsh strategies
        // stagger daemon start times across *seconds* at scale, so a
        // fixed-short window would wrongly declare the parent dead while
        // its subtree is still being rsh-launched. The capped budget
        // (~15 s total) still bounds genuinely-dead-parent detection.
        const int used = kConnectRetries - attempts_left;
        sim::Time delay = kRetryDelay << std::min(used, 8);
        if (delay > kRetryDelayCap) delay = kRetryDelayCap;
        self_.post(delay, [this, attempts_left] {
          connect_parent(attempts_left - 1);
        });
      } else if (subtree_ready_ && !ready_fired_) {
        ready_fired_ = true;
        subtree_ready_(Status(Rc::Esubcom, "cannot reach fabric parent"));
      }
      return;
    }
    parent_ = ch;
    parent_rank_ = parent_rank;
    self_.set_channel_handler(
        ch,
        [this](const cluster::ChannelPtr& c, cluster::Message m) {
          on_fabric_message(c, std::move(m));
        },
        [this](const cluster::ChannelPtr&) {
          // Session teardown: parent went away. In heal mode a post-ready
          // parent loss is a comm-daemon death to recover from instead.
          parent_ = nullptr;
          if (heal_ && ready_fired_ && !left_) begin_reparent();
        });
    self_.send(ch, encode_frame(Kind::Register, 0, params_.rank));
    parent_linked_ = true;
    maybe_subtree_ready();
  });
}

void Iccl::on_fabric_message(const cluster::ChannelPtr& ch,
                             cluster::Message m) {
  auto frame = decode_frame(std::move(m));
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
    handle_cost += eager_copy_cost(payload_bytes);
  }
  self_.post(handle_cost, [this, ch, frame = std::move(*frame)]() mutable {
    switch (frame.kind) {
      case Kind::Register:
        handle_register(ch, frame.src);
        break;
      case Kind::SetupUp:
        handle_setup_up();
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
      case Kind::RndvRts:
        if (!frame.entries.empty()) {
          ByteReader r(frame.entries.front().second.span());
          handle_rndv_rts(frame.tag, frame.entries.front().first,
                          r.u32().value_or(0));
        }
        break;
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
      case Kind::GatherCts:
        handle_gather_cts(frame.tag);
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
        handle_gather_resume(frame.tag, frame.entries);
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

void Iccl::handle_register(const cluster::ChannelPtr& ch,
                           std::uint32_t rank) {
  children_[rank] = ch;
  maybe_subtree_ready();
}

void Iccl::handle_setup_up() {
  setups_pending_ -= 1;
  maybe_subtree_ready();
}

void Iccl::maybe_subtree_ready() {
  if (ready_fired_) return;
  if (!parent_linked_) return;
  if (children_.size() != expected_children_.size()) return;
  if (setups_pending_ > 0) return;
  ready_fired_ = true;
  if (!is_root() && parent_ != nullptr) {
    send_up(encode_frame(Kind::SetupUp, 0, params_.rank));
  }
  if (subtree_ready_) subtree_ready_(Status::ok());
}

bool Iccl::use_rendezvous(std::size_t payload_bytes) const {
  return payload_bytes >= rndv_threshold_ && payload_bytes > 0;
}

sim::Time Iccl::eager_copy_cost(std::size_t bytes) const {
  const sim::Time per_kb = self_.machine().costs().iccl_eager_copy_per_kb;
  return static_cast<sim::Time>(static_cast<double>(per_kb) *
                                static_cast<double>(bytes) / 1024.0);
}

void Iccl::eager_fanout(StreamKey tag, const ByteSlice& payload) {
  // Fan-out sends serialize on this daemon's CPU: the k-th child's copy
  // leaves after k quanta, and each quantum stretches with the payload
  // (the simulated per-child copy into the send buffer; on the host every
  // frame views the one payload buffer). This is the per-level cost that
  // makes eager T(collective) grow with fan-out and payload size (swept in
  // bench_ablation_iccl; rendezvous exists to beat it).
  const sim::Time quantum = self_.machine().costs().iccl_msg_handle +
                            eager_copy_cost(payload.size());
  count_mux(tag, "eager_frames", static_cast<double>(children_.size()));
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("iccl.eager_fanout", "iccl",
                    static_cast<int>(self_.node().id()), self_.pid(),
                    trace_parent(*tracer),
                    "tag=" + tag.str() +
                        " children=" + std::to_string(children_.size()) +
                        " bytes=" + std::to_string(payload.size()));
  }
  int k = 0;
  for (auto& [rank, ch] : children_) {
    cluster::ChannelPtr child = ch;
    self_.post(static_cast<sim::Time>(k++) * quantum, [this, child, tag,
                                                       payload] {
      self_.send(child,
                 payload_frame(Kind::Bcast, tag, params_.rank, 0, payload));
    });
  }
}

void Iccl::handle_bcast(StreamKey tag, ByteSlice payload) {
  // Heal replay duplicate: this round was already delivered here (and fanned
  // out); drop it entirely so neither the handler nor the subtree sees it
  // twice. Tags are unique per round, so the ring is an exact guard.
  if (heal_ && bcast_history_.count(tag) != 0) return;
  // This node holds the complete payload (root issue, or an eager frame
  // arrived). Every frame sent below views that one buffer.
  if (!children_.empty()) {
    if (use_rendezvous(payload.size())) {
      const std::uint32_t chunk =
          self_.machine().costs().iccl_rndv_chunk_bytes;
      const auto total = static_cast<std::uint32_t>(payload.size());
      const std::uint32_t nchunks = (total + chunk - 1) / chunk;
      RndvSend& st = rndv_open_send(tag, nchunks, total);
      // The root has every chunk ready up front; they stream (round-robin
      // across the children) as soon as the last CTS arrives.
      st.ready.reserve(nchunks);
      for (std::uint32_t seq = 0; seq < nchunks; ++seq) {
        const std::size_t begin = static_cast<std::size_t>(seq) * chunk;
        const std::size_t len = std::min<std::size_t>(chunk,
                                                      total - begin);
        st.ready.push_back(payload.sub(begin, len));
      }
      rndv_flush(tag, st);
    } else {
      eager_fanout(tag, payload);
    }
  }
  if (heal_) heal_record_bcast(tag, payload);
  deliver_bcast(tag, payload);
}

void Iccl::broadcast(StreamKey tag, Bytes data) {
  assert(is_root() && "broadcast must originate at the ICCL root");
  handle_bcast(tag, ByteSlice(std::make_shared<const Bytes>(std::move(data))));
}

// --- rendezvous (RTS/CTS + pipelined chunks) -----------------------------

Iccl::RndvSend& Iccl::rndv_open_send(StreamKey tag, std::uint32_t nchunks,
                                     std::uint32_t total) {
  RndvSend& st = rndv_sends_[tag] = RndvSend{};
  st.nchunks = nchunks;
  st.total = total;
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    st.span = tracer->begin_span(
        "iccl.rndv_send", "iccl", static_cast<int>(self_.node().id()),
        self_.pid(), trace_parent(*tracer),
        "tag=" + tag.str() + " chunks=" + std::to_string(nchunks) +
            " bytes=" + std::to_string(total));
  }
  // RTS frames fan out serialized like eager sends (they are ordinary
  // messages), but they are tiny: no payload-copy term.
  const sim::Time quantum = self_.machine().costs().iccl_msg_handle;
  int k = 0;
  for (auto& [rank, ch] : children_) {
    st.cts_pending.insert(rank);
    cluster::ChannelPtr child = ch;
    count_mux(tag, "rts_sent");
    self_.post(static_cast<sim::Time>(k++) * quantum,
               [this, child, tag, nchunks, total] {
                 ByteWriter w;
                 w.u32(total);
                 self_.send(child,
                            encode_frame(Kind::RndvRts, tag, params_.rank,
                                         {{nchunks, std::move(w).take()}}));
               });
  }
  return st;
}

void Iccl::handle_rndv_rts(StreamKey tag, std::uint32_t nchunks,
                           std::uint32_t total) {
  // Heal replay of a round this node already delivered: ignore it rather
  // than re-opening receive/relay state the subtree already consumed.
  if (heal_ && bcast_history_.count(tag) != 0) return;
  if (nchunks == 0) {
    // Degenerate empty rendezvous: deliver immediately.
    if (heal_) heal_record_bcast(tag, ByteSlice());
    deliver_bcast(tag, ByteSlice());
    return;
  }
  RndvRecv& rc = rndv_recvs_[tag];
  rc.nchunks = nchunks;
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    rc.span = tracer->begin_span(
        "iccl.rndv_recv", "iccl", static_cast<int>(self_.node().id()),
        self_.pid(), trace_parent(*tracer),
        "tag=" + tag.str() + " chunks=" + std::to_string(nchunks));
  }
  // Cut-through: open the downstream round now so grandchild CTS exchanges
  // overlap the payload still streaming toward this node.
  if (!children_.empty()) rndv_open_send(tag, nchunks, total);
  // Clear the parent to stream.
  count_mux(tag, "cts_sent");
  send_up(encode_frame(Kind::RndvCts, tag, params_.rank));
}

void Iccl::handle_rndv_cts(StreamKey tag, std::uint32_t src) {
  auto it = rndv_sends_.find(tag);
  if (it == rndv_sends_.end()) return;
  it->second.cts_pending.erase(src);
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("iccl.cts_received", "iccl",
                    static_cast<int>(self_.node().id()), self_.pid(),
                    it->second.span,
                    "tag=" + tag.str() +
                        " from=" + std::to_string(src) + " pending=" +
                        std::to_string(it->second.cts_pending.size()));
  }
  if (it->second.cts_pending.empty()) {
    it->second.streaming = true;
    rndv_flush(tag, it->second);
  }
}

void Iccl::rndv_flush(StreamKey tag, RndvSend& st) {
  if (!st.streaming) return;
  // Serialized chunk posts: each (chunk, child) send occupies the CPU for
  // one chunk-handle quantum, but unlike eager there is no per-byte copy -
  // chunks go out of the one registered payload buffer. Levels overlap
  // because a relay forwards chunk j while its parent still streams j+1.
  const sim::Time occ = self_.machine().costs().iccl_chunk_handle;
  const sim::Time now = self_.sim().now();
  while (st.next_seq < st.ready.size()) {
    const std::uint32_t seq = st.next_seq++;
    const ByteSlice& chunk = st.ready[seq];
    for (auto& [rank, ch] : children_) {
      cluster::ChannelPtr child = ch;
      sim::Time depart = std::max(st.cursor, now);
      self_.post(depart - now, [this, child, tag, seq, chunk] {
        self_.send(child, payload_frame(Kind::RndvChunk, tag, params_.rank,
                                        seq, chunk));
      });
      st.cursor = depart + occ;
    }
  }
  if (st.next_seq == st.nchunks) {
    if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
      tracer->end_span(st.span);
    }
    rndv_sends_.erase(tag);
  }
}

void Iccl::handle_rndv_chunk(StreamKey tag, std::uint32_t seq,
                             ByteSlice data) {
  auto it = rndv_recvs_.find(tag);
  if (it == rndv_recvs_.end()) return;
  RndvRecv& rc = it->second;
  if (seq != rc.received) return;  // FIFO channels make this unreachable
  rc.received += 1;
  rc.payload.append(data);
  count_mux(tag, "chunks_received");
  // Relay toward this node's own children (cut-through forwarding).
  auto sit = rndv_sends_.find(tag);
  if (sit != rndv_sends_.end()) {
    count_mux(tag, "chunks_relayed");
    if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
      tracer->instant("iccl.chunk_relay", "iccl",
                      static_cast<int>(self_.node().id()), self_.pid(),
                      sit->second.span,
                      "tag=" + tag.str() +
                          " seq=" + std::to_string(seq));
    }
    sit->second.ready.push_back(std::move(data));
    rndv_flush(tag, sit->second);
  }
  if (rc.received == rc.nchunks) {
    const ByteSlice payload = rc.payload.join();
    if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
      tracer->end_span(rc.span, "bytes=" + std::to_string(payload.size()));
    }
    rndv_recvs_.erase(it);
    if (heal_) heal_record_bcast(tag, payload);
    deliver_bcast(tag, payload);
  }
}

void Iccl::on_child_lost(const cluster::ChannelPtr& ch) {
  std::optional<std::uint32_t> lost;
  for (const auto& [rank, link] : children_) {
    if (link == ch) {
      lost = rank;
      break;
    }
  }
  if (!lost) return;
  children_.erase(*lost);
  self_.machine().count("iccl.children_lost");
  self_.machine().flight_record(self_.pid(), "iccl",
                                "child rank " + std::to_string(*lost) +
                                    " lost");
  // Any rendezvous round still waiting on the dead child's CTS must not
  // stall the surviving children.
  for (auto it = rndv_sends_.begin(); it != rndv_sends_.end();) {
    RndvSend& st = it->second;
    st.cts_pending.erase(*lost);
    if (!st.streaming && st.cts_pending.empty()) {
      st.streaming = true;
      const StreamKey tag = it->first;
      rndv_flush(tag, st);
      // rndv_flush may erase the state; restart iteration defensively.
      it = rndv_sends_.upper_bound(tag);
    } else {
      ++it;
    }
  }
  // Heal mode: do not drop the dead child's subtree yet. Open a heal slot
  // and give its orphans a grace window to reattach; only what stays
  // unclaimed when the slot resolves is retracted.
  if (heal_ && ready_fired_) {
    heal_child_lost(*lost);
    return;
  }
  // Gather rounds: forgive the child's announce, and drop any of its
  // announced origins whose payload did not finish arriving - surviving
  // contributions must still be delivered.
  for (auto it = gathers_.begin(); it != gathers_.end();) {
    const StreamKey tag = it->first;
    GatherState& st = it->second;
    if (gather_forget_child(tag, st, *lost)) {
      // May announce, forward an eager frame, deliver at the root, or
      // retire a relay - all of which can erase the state.
      flush_gather(tag);
      gather_relay_maybe_done(tag);
      it = gathers_.upper_bound(tag);
    } else {
      ++it;
    }
  }
}

Iccl::GatherState& Iccl::gather_state(StreamKey tag) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end()) {
    GatherState st;
    // Seed from the *live* children: a child that already died must not be
    // waited for (its whole subtree's contributions are gone with it).
    for (const auto& [rank, ch] : children_) st.children_pending.insert(rank);
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
  st.acc.emplace_back(
      params_.rank, ByteSlice(std::make_shared<const Bytes>(std::move(data))));
  if (heal_) st.retained[params_.rank].append(st.acc.back().second);
  flush_gather(tag);
}

void Iccl::handle_gather_up(StreamKey tag, std::uint32_t src,
                            Entries entries) {
  GatherState& st = gather_state(tag);
  st.children_pending.erase(src);
  if (heal_) {
    // Re-sent eager accumulation from a reattached orphan: keep only the
    // origins this node has not seen yet (a prior partial path may have
    // delivered some already via a different route).
    entries.erase(
        std::remove_if(entries.begin(), entries.end(),
                       [&](const auto& e) {
                         return st.retained.count(e.first) != 0 ||
                                st.origin_bytes.count(e.first) != 0 ||
                                st.assembling.count(e.first) != 0 ||
                                st.dropped.count(e.first) != 0;
                       }),
        entries.end());
    if (st.retired && entries.empty()) return;
    for (auto& e : entries) {
      st.retained[e.first].append(e.second);
      st.acc.push_back(std::move(e));
    }
  } else {
    for (auto& e : entries) st.acc.push_back(std::move(e));
  }
  flush_gather(tag);
}

std::size_t Iccl::gather_subtree_bytes(const GatherState& st) const {
  std::size_t total = 0;
  for (const auto& [rank, data] : st.acc) total += data.size();
  for (const auto& [origin, sz] : st.origin_bytes) total += sz;
  return total;
}

void Iccl::flush_gather(StreamKey tag) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end()) return;
  GatherState& st = it->second;
  if (!st.own_done || !st.children_pending.empty() || !st.healing.empty()) {
    return;
  }
  if (is_root()) {
    gather_check_complete(tag);
    return;
  }
  if (st.announced) return;  // rendezvous round already in flight
  if (st.retired) return;    // kept only for heal replay
  // Protocol decision on the *subtree total*: any rendezvous child implies
  // the subtree already crossed the threshold (totals are monotone up the
  // tree), so the eager branch only ever carries whole-entry accumulations.
  if (!st.rndv_children.empty() ||
      use_rendezvous(gather_subtree_bytes(st))) {
    gather_announce(tag, st);
    return;
  }
  std::sort(st.acc.begin(), st.acc.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  send_up(encode_frame(Kind::GatherUp, tag, params_.rank, st.acc));
  if (heal_) {
    heal_retire_gather(tag, st, /*eager=*/true);
  } else {
    gathers_.erase(it);
  }
}

// --- rendezvous gather (upstream RTS/CTS + cut-through chunk relay) ------

void Iccl::gather_announce(StreamKey tag, GatherState& st) {
  st.announced = true;
  std::sort(st.acc.begin(), st.acc.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // RTS carries (origin, total bytes) for every origin in this subtree:
  // the locally-held entries plus everything rendezvous children announced.
  std::vector<std::pair<std::uint32_t, Bytes>> origins;
  origins.reserve(st.acc.size() + st.origin_bytes.size());
  for (const auto& [rank, data] : st.acc) {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(data.size()));
    origins.emplace_back(rank, std::move(w).take());
  }
  for (const auto& [origin, sz] : st.origin_bytes) {
    ByteWriter w;
    w.u32(sz);
    origins.emplace_back(origin, std::move(w).take());
  }
  std::sort(origins.begin(), origins.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  count_mux(tag, "gather_rts_sent");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    st.span = tracer->begin_span(
        "iccl.gather_stream", "iccl", static_cast<int>(self_.node().id()),
        self_.pid(), trace_parent(*tracer),
        "tag=" + tag.str() +
            " origins=" + std::to_string(origins.size()) + " bytes=" +
            std::to_string(gather_subtree_bytes(st)));
  }
  send_up(encode_frame(Kind::GatherRts, tag, params_.rank, origins));
}

void Iccl::handle_gather_rts(StreamKey tag, std::uint32_t src,
                             const Entries& entries) {
  GatherState& st = gather_state(tag);
  st.children_pending.erase(src);
  st.rndv_children.insert(src);
  std::set<std::uint32_t>& owned = st.child_origins[src];
  // A re-announce (reattached orphan repeating its RTS) must not reset the
  // receive progress of origins whose bytes partially arrived via the old
  // route; collect resume offsets for them instead.
  bool reannounce = false;
  if (heal_) {
    for (const auto& [origin, blob] : entries) {
      if (st.origin_bytes.count(origin) != 0) {
        reannounce = true;
        break;
      }
    }
  }
  std::vector<std::pair<std::uint32_t, Bytes>> resume;
  for (const auto& [origin, blob] : entries) {
    ByteReader r(blob.span());
    const std::uint32_t sz = r.u32().value_or(0);
    std::uint32_t got = 0;
    if (heal_ && st.origin_bytes.count(origin) != 0) {
      owned.insert(origin);
      if (is_root()) {
        auto a = st.assembling.find(origin);
        got = a == st.assembling.end()
                  ? 0
                  : static_cast<std::uint32_t>(a->second.size());
      } else {
        auto rem = st.origin_remaining.find(origin);
        const std::uint32_t left =
            rem == st.origin_remaining.end() ? sz : rem->second;
        got = sz - std::min(sz, left);
      }
    } else {
      st.origin_bytes[origin] = sz;
      st.origin_remaining[origin] = sz;
      owned.insert(origin);
    }
    if (reannounce) {
      ByteWriter w;
      w.u32(got);
      resume.emplace_back(origin, std::move(w).take());
    }
  }
  if (heal_ && ready_fired_ && heal_slots_.count(src) != 0) {
    // The announce raced this child's own death (frames already in the
    // per-direction FIFO when the link dropped). The heal slot owns the
    // cleanup; just make this round wait for the slot's resolution.
    st.healing.insert(src);
    flush_gather(tag);
    return;
  }
  if (children_.count(src) == 0) {
    // The announce was still in flight when the child's link died: the
    // on_child_lost sweep found nothing to drop, and a CTS would go into a
    // void. Drop the announced-but-unstreamed origins right now instead of
    // waiting for chunks that can never arrive.
    gather_forget_child(tag, st, src);
    flush_gather(tag);
    gather_relay_maybe_done(tag);
    return;
  }
  if (reannounce && (is_root() || st.streaming)) {
    // Resume subsumes CTS: the reattached orphan must continue each origin
    // from the byte offset this node already has, never restart - so it gets
    // a GatherResume (with per-origin offsets) instead of a normal CTS. A
    // fully-retired round answers with offset == size: nothing to re-send.
    for (auto& [origin, blob] : resume) {
      if (st.retired) {
        ByteWriter w;
        w.u32(st.origin_bytes.count(origin) != 0 ? st.origin_bytes[origin]
                                                 : 0);
        blob = std::move(w).take();
      }
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
  flush_gather(tag);
}

void Iccl::handle_gather_cts(StreamKey tag) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end()) return;
  GatherState& st = it->second;
  if (!st.announced || st.streaming) return;
  gather_begin_streaming(tag, st);
  gather_flush(tag, st);
  gather_relay_maybe_done(tag);
}

void Iccl::gather_begin_streaming(StreamKey tag, GatherState& st) {
  st.streaming = true;
  // Clear own rendezvous children (ascending rank; CTS frames are ordinary
  // staggered sends). All children announced before this node did, so the
  // set is final.
  const sim::Time quantum = self_.machine().costs().iccl_msg_handle;
  int k = 0;
  for (std::uint32_t child : st.rndv_children) {
    count_mux(tag, "gather_cts_sent");
    self_.post(static_cast<sim::Time>(k++) * quantum, [this, child, tag] {
      send_to_child(child,
                    encode_frame(Kind::GatherCts, tag, params_.rank));
    });
  }
  // Queue the locally-held entries as chunks (rank order); relayed chunks
  // join the queue behind them as they trickle in.
  const std::uint32_t chunk = self_.machine().costs().iccl_rndv_chunk_bytes;
  for (auto& [rank, data] : st.acc) {
    const auto total = static_cast<std::uint32_t>(data.size());
    for (std::uint32_t begin = 0; begin < total; begin += chunk) {
      const std::uint32_t len = std::min(chunk, total - begin);
      st.outq.emplace_back(rank, data.sub(begin, len));
    }
  }
  st.acc.clear();
}

void Iccl::gather_flush(StreamKey tag, GatherState& st) {
  if (!st.streaming || st.heal_hold) return;
  // Serialized chunk posts, same cursor discipline as the downstream
  // rendezvous: each send occupies the CPU for one chunk-handle quantum and
  // goes out of a registered buffer (no per-byte copy).
  const sim::Time occ = self_.machine().costs().iccl_chunk_handle;
  const sim::Time now = self_.sim().now();
  // Heal mode pins each posted send to the parent link that existed at
  // schedule time: a chunk scheduled before an adoption must die with the
  // old link, not leak onto the new parent at a stale offset (the resume
  // handshake re-sends it at the right position instead).
  cluster::ChannelPtr up = heal_ ? parent_ : nullptr;
  while (st.next_out < st.outq.size()) {
    auto& [origin, chunk] = st.outq[st.next_out++];
    const sim::Time depart = std::max(st.cursor, now);
    if (heal_) {
      self_.post(depart - now,
                 [this, up, tag, origin = origin, chunk = std::move(chunk)] {
                   if (up != nullptr) {
                     self_.send(up, payload_frame(Kind::GatherChunk, tag,
                                                  params_.rank, origin,
                                                  chunk));
                   }
                 });
    } else {
      self_.post(depart - now,
                 [this, tag, origin = origin, chunk = std::move(chunk)] {
                   send_up(payload_frame(Kind::GatherChunk, tag,
                                         params_.rank, origin, chunk));
                 });
    }
    st.cursor = depart + occ;
  }
}

void Iccl::handle_gather_chunk(StreamKey tag, std::uint32_t origin,
                               ByteSlice data) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end()) return;  // round retired (late chunk after drop)
  GatherState& st = it->second;
  if (st.dropped.count(origin) != 0) return;
  count_mux(tag, "gather_chunks_received");
  if (is_root()) {
    // The root's one copy of this origin: into the buffer deliver_gather
    // hands out, sized once from the announce.
    Bytes& buf = st.assembling[origin];
    if (buf.empty()) {
      auto announced = st.origin_bytes.find(origin);
      if (announced != st.origin_bytes.end()) buf.reserve(announced->second);
    }
    buf.insert(buf.end(), data.begin(), data.end());
    gather_check_complete(tag);
    return;
  }
  // Cut-through relay: forward the chunk as-is instead of assembling the
  // child's contribution. These bytes were already counted as contributed
  // at their origin; here they count only as relay traffic.
  count_mux(tag, "gather_chunks_relayed");
  count_mux(tag, "gather_bytes_relayed", static_cast<double>(data.size()));
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->instant("iccl.gather_chunk_relay", "iccl",
                    static_cast<int>(self_.node().id()), self_.pid(), st.span,
                    "tag=" + tag.str() +
                        " origin=" + std::to_string(origin) +
                        " bytes=" + std::to_string(data.size()));
  }
  auto rem = st.origin_remaining.find(origin);
  if (rem != st.origin_remaining.end()) {
    rem->second -= std::min(rem->second,
                            static_cast<std::uint32_t>(data.size()));
  }
  if (heal_) {
    // Retain relayed bytes so a future reparent can re-stream them from
    // this node's own view (the resume handshake asks for a byte offset).
    st.retained[origin].append(data);
  }
  st.outq.emplace_back(origin, std::move(data));
  gather_flush(tag, st);
  gather_relay_maybe_done(tag);
}

void Iccl::gather_check_complete(StreamKey tag) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end() || !is_root()) return;
  GatherState& st = it->second;
  if (st.retired) return;  // already delivered; kept only for heal replay
  if (!st.own_done || !st.children_pending.empty() || !st.healing.empty()) {
    return;
  }
  for (const auto& [origin, sz] : st.origin_bytes) {
    if (st.dropped.count(origin) != 0) continue;
    auto a = st.assembling.find(origin);
    const std::size_t got = a == st.assembling.end() ? 0 : a->second.size();
    if (got != sz) return;
  }
  // The root copies each origin exactly once: held entries here, streamed
  // ones chunk by chunk into `assembling`.
  std::vector<std::pair<std::uint32_t, Bytes>> out;
  out.reserve(st.acc.size() + st.origin_bytes.size());
  for (const auto& [rank, data] : st.acc) {
    out.emplace_back(rank, data.to_bytes());
  }
  st.acc.clear();
  for (auto& [origin, bytes] : st.assembling) {
    if (st.dropped.count(origin) == 0) out.emplace_back(origin,
                                                        std::move(bytes));
  }
  for (const auto& [origin, sz] : st.origin_bytes) {
    // Zero-byte origins stream nothing; they still contributed.
    if (sz == 0 && st.dropped.count(origin) == 0) out.emplace_back(origin,
                                                                   Bytes{});
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->end_span(st.span, "entries=" + std::to_string(out.size()));
    st.span = obs::kNoSpan;
  }
  mux_release(tag);
  if (heal_) {
    // Tell the tree the round is over so retired replay copies can be freed
    // and a late-reattaching orphan does not re-announce a delivered round.
    for (auto& [rank, ch] : children_) {
      self_.send(ch, encode_frame(Kind::GatherDone, tag, params_.rank));
    }
    heal_retire_gather(tag, st, /*eager=*/false);
  } else {
    gathers_.erase(it);  // round complete; allow reuse of the tag
  }
  deliver_gather(tag, std::move(out));
}

void Iccl::gather_relay_maybe_done(StreamKey tag) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end() || is_root()) return;
  GatherState& st = it->second;
  if (st.retired) return;
  if (!st.announced || !st.streaming || st.heal_hold) return;
  if (!st.healing.empty()) return;
  for (const auto& [origin, remaining] : st.origin_remaining) {
    if (remaining > 0 && st.dropped.count(origin) == 0) return;
  }
  // Everything this subtree announced is scheduled (posted sends keep their
  // own chunk refs); the round state can retire.
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    tracer->end_span(st.span);
    st.span = obs::kNoSpan;
  }
  if (heal_) {
    heal_retire_gather(tag, st, /*eager=*/false);
  } else {
    gathers_.erase(it);
  }
}

bool Iccl::gather_forget_child(StreamKey tag, GatherState& st,
                               std::uint32_t child) {
  bool touched = st.children_pending.erase(child) > 0;
  if (st.rndv_children.erase(child) > 0) {
    touched = true;
    auto co = st.child_origins.find(child);
    if (co != st.child_origins.end()) {
      for (std::uint32_t origin : co->second) {
        bool complete = false;
        if (is_root()) {
          auto a = st.assembling.find(origin);
          const std::size_t got =
              a == st.assembling.end() ? 0 : a->second.size();
          complete = got == st.origin_bytes[origin];
        } else {
          auto rem = st.origin_remaining.find(origin);
          complete = rem == st.origin_remaining.end() || rem->second == 0;
        }
        if (!complete) gather_drop_origin(tag, st, origin);
      }
      st.child_origins.erase(co);
    }
  }
  return touched;
}

void Iccl::gather_drop_origin(StreamKey tag, GatherState& st,
                              std::uint32_t origin) {
  if (!st.dropped.insert(origin).second) return;
  count_mux(tag, "gather_drops");
  self_.machine().flight_record(self_.pid(), "iccl",
                                "gather tag " + tag.str() +
                                    " dropped origin " +
                                    std::to_string(origin));
  if (is_root()) {
    st.assembling.erase(origin);
    return;
  }
  if (st.announced) {
    // Parent knows about this origin; retract it. The drop frame may
    // overtake chunks still queued behind the cursor - receivers ignore
    // chunks for dropped origins, so the race is benign.
    auto rem = st.origin_remaining.find(origin);
    if (rem != st.origin_remaining.end()) rem->second = 0;
    send_up(encode_frame(Kind::GatherDrop, tag, params_.rank,
                         {{origin, Bytes{}}}));
  } else {
    // Not yet announced: the parent never heard of the origin; just forget
    // it so the eventual RTS excludes it.
    st.origin_bytes.erase(origin);
    st.origin_remaining.erase(origin);
  }
}

void Iccl::handle_gather_drop(StreamKey tag, const Entries& entries) {
  auto it = gathers_.find(tag);
  if (it == gathers_.end()) return;
  GatherState& st = it->second;
  for (const auto& [origin, unused] : entries) {
    gather_drop_origin(tag, st, origin);
  }
  if (is_root()) {
    gather_check_complete(tag);
  } else {
    gather_relay_maybe_done(tag);
  }
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
  sim::Time offset = 0;
  for (auto& [child, link] : children_) {
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
      self_.post(offset, [this, child, m = std::move(m)]() mutable {
        send_to_child(child, std::move(m));
      });
      offset += self_.machine().costs().iccl_msg_handle +
                eager_copy_cost(part_bytes);
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

void Iccl::heal_retire_gather(StreamKey tag, GatherState& st,
                              bool eager) {
  if (st.retired) return;
  st.retired = true;
  st.eager_sent = eager;
  st.heal_hold = false;
  st.acc.clear();
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

void Iccl::heal_child_lost(std::uint32_t lost) {
  self_.machine().flight_record(
      self_.pid(), "iccl",
      "heal: child rank " + std::to_string(lost) +
          " died; holding its subtree's stake for orphan reattach");
  // Rendezvous broadcast rounds must not wait on the dead child's CTS;
  // same forgiveness as the non-heal path.
  for (auto it = rndv_sends_.begin(); it != rndv_sends_.end();) {
    RndvSend& st = it->second;
    st.cts_pending.erase(lost);
    if (!st.streaming && st.cts_pending.empty()) {
      st.streaming = true;
      const StreamKey tag = it->first;
      rndv_flush(tag, st);
      it = rndv_sends_.upper_bound(tag);
    } else {
      ++it;
    }
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
  self_.machine().flight_record(
      self_.pid(), "iccl",
      "heal: slot for dead child " + std::to_string(dead) +
          (expired ? " resolved by grace expiry" : " resolved by coverage"));
  // Whatever stake of the dead child's subtree was not claimed by a
  // reattached orphan is now retracted, exactly like the non-heal path.
  for (auto it = gathers_.begin(); it != gathers_.end();) {
    const StreamKey tag = it->first;
    GatherState& st = it->second;
    const bool touched =
        st.healing.erase(dead) != 0 || st.rndv_children.count(dead) != 0;
    if (!touched) {
      ++it;
      continue;
    }
    gather_forget_child(tag, st, dead);
    flush_gather(tag);
    gather_relay_maybe_done(tag);
    it = gathers_.upper_bound(tag);
  }
}

void Iccl::begin_reparent() {
  if (reparenting_ || left_) return;
  reparenting_ = true;
  heal_via_.clear();
  self_.machine().count("iccl.heal.orphaned");
  self_.machine().flight_record(self_.pid(), "iccl",
                                "heal: parent rank " +
                                    std::to_string(parent_rank_) +
                                    " lost; climbing ancestor chain");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    heal_span_ = tracer->begin_span(
        "iccl.heal", "iccl", static_cast<int>(self_.node().id()), self_.pid(),
        trace_parent(*tracer),
        "rank=" + std::to_string(params_.rank) +
            " lost_parent=" + std::to_string(parent_rank_));
  }
  // Freeze upstream gather streaming: chunks must not race ahead of the
  // per-origin resume offsets the adopter will dictate.
  for (auto& [tag, st] : gathers_) {
    if (!st.retired && st.announced && st.streaming) st.heal_hold = true;
  }
  heal_via_.push_back(parent_rank_);
  const auto target = topo_.parent_of(parent_rank_);
  if (!target) {
    // The dead parent was the root: nothing above to heal onto.
    self_.machine().count("iccl.heal.give_ups");
    if (obs::Tracer* tracer = self_.machine().tracer();
        tracer != nullptr && heal_span_ != obs::kNoSpan) {
      tracer->end_span(heal_span_, "give_up=root_dead");
      heal_span_ = obs::kNoSpan;
    }
    reparenting_ = false;
    return;
  }
  try_reattach(*target, kHealConnectRetries);
}

void Iccl::try_reattach(std::uint32_t target, int attempts_left) {
  if (left_) return;
  self_.connect(
      params_.hosts.at(target), params_.port,
      [this, target, attempts_left](Status st, cluster::ChannelPtr ch) {
        if (left_) return;
        if (st.is_ok()) {
          adopt_parent(target, std::move(ch));
          return;
        }
        if (attempts_left > 0) {
          self_.machine().count("iccl.heal.reattach_retries");
          self_.post(kRetryDelay, [this, target, attempts_left] {
            try_reattach(target, attempts_left - 1);
          });
          return;
        }
        // This ancestor is dead too: record it for the adopter's coverage
        // bookkeeping and keep climbing.
        heal_via_.push_back(target);
        const auto next = topo_.parent_of(target);
        if (!next) {
          // Even the root is unreachable - session teardown, not a failure
          // to heal. Give up quietly so a dissolving tree does not spin.
          self_.machine().count("iccl.heal.give_ups");
          self_.machine().flight_record(
              self_.pid(), "iccl",
              "heal: no live ancestor reachable; giving up");
          if (obs::Tracer* tracer = self_.machine().tracer();
              tracer != nullptr && heal_span_ != obs::kNoSpan) {
            tracer->end_span(heal_span_, "give_up=no_live_ancestor");
            heal_span_ = obs::kNoSpan;
          }
          reparenting_ = false;
          return;
        }
        try_reattach(*next, kHealConnectRetries);
      });
}

void Iccl::adopt_parent(std::uint32_t target, cluster::ChannelPtr ch) {
  parent_ = ch;
  parent_rank_ = target;
  reparenting_ = false;
  self_.machine().count("iccl.heal.reattaches");
  self_.machine().flight_record(self_.pid(), "iccl",
                                "heal: reattached under rank " +
                                    std::to_string(target));
  if (obs::Tracer* tracer = self_.machine().tracer();
      tracer != nullptr && heal_span_ != obs::kNoSpan) {
    tracer->end_span(heal_span_, "adopted_by=" + std::to_string(target));
    heal_span_ = obs::kNoSpan;
  }
  self_.set_channel_handler(
      ch,
      [this](const cluster::ChannelPtr& c, cluster::Message m) {
        on_fabric_message(c, std::move(m));
      },
      [this](const cluster::ChannelPtr&) {
        parent_ = nullptr;
        if (heal_ && ready_fired_ && !left_) begin_reparent();
      });
  // One Reattach frame carries everything the adopter needs: the dead
  // ancestors seen on the climb, the delivered-broadcast ring (duplicate
  // suppression baseline) and per-round receive offsets for catch-up.
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(heal_via_.size()));
  for (std::uint32_t r : heal_via_) w.u32(r);
  w.u32(static_cast<std::uint32_t>(bcast_history_order_.size()));
  for (const StreamKey& t : bcast_history_order_) {
    w.u32(t.session);
    w.u32(t.tag);
  }
  w.u32(static_cast<std::uint32_t>(rndv_recvs_.size()));
  for (const auto& [tag, rc] : rndv_recvs_) {
    w.u32(tag.session);
    w.u32(tag.tag);
    w.u32(rc.received);
    w.u32(rc.nchunks);
  }
  self_.send(ch, encode_frame(Kind::Reattach, 0, params_.rank,
                              {{0, std::move(w).take()}}));
  heal_send_reannounces();
}

void Iccl::heal_send_reannounces() {
  for (auto& [tag, st] : gathers_) {
    if (st.retired && st.eager_sent) {
      // The eager combined frame may have died with the old parent's inbox;
      // re-send it from the retained views (the receiver keeps only the
      // origins it has not seen).
      Entries entries;
      entries.reserve(st.retained.size());
      for (auto& [origin, data] : st.retained) {
        entries.emplace_back(origin, data.join());
      }
      self_.machine().count("iccl.heal.gather_reannounces");
      send_up(encode_frame(Kind::GatherUp, tag, params_.rank, entries));
      continue;
    }
    if (!st.announced) continue;
    // Rendezvous round (mid-stream or relay-retired): repeat the RTS with
    // every origin this subtree owns. Dropped origins stay listed - their
    // retraction follows immediately so the adopter's bookkeeping matches.
    std::map<std::uint32_t, std::uint32_t> sizes;
    for (const auto& [origin, data] : st.retained) {
      sizes[origin] = static_cast<std::uint32_t>(data.size());
    }
    for (const auto& [origin, sz] : st.origin_bytes) sizes[origin] = sz;
    std::vector<std::pair<std::uint32_t, Bytes>> origins;
    origins.reserve(sizes.size());
    for (const auto& [origin, sz] : sizes) {
      ByteWriter w;
      w.u32(sz);
      origins.emplace_back(origin, std::move(w).take());
    }
    self_.machine().count("iccl.heal.gather_reannounces");
    send_up(encode_frame(Kind::GatherRts, tag, params_.rank, origins));
    if (!st.dropped.empty()) {
      std::vector<std::pair<std::uint32_t, Bytes>> drops;
      drops.reserve(st.dropped.size());
      for (std::uint32_t origin : st.dropped) {
        drops.emplace_back(origin, Bytes{});
      }
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
  std::map<StreamKey, std::pair<std::uint32_t, std::uint32_t>> open;
  const std::uint32_t nrecv = r.u32().value_or(0);
  for (std::uint32_t i = 0; i < nrecv; ++i) {
    const std::uint32_t session = r.u32().value_or(0);
    const std::uint32_t t = r.u32().value_or(0);
    const std::uint32_t received = r.u32().value_or(0);
    const std::uint32_t nchunks = r.u32().value_or(0);
    open[StreamKey{session, t}] = {received, nchunks};
  }
  children_[src] = ch;
  self_.machine().count("iccl.heal.adoptions");
  self_.machine().flight_record(
      self_.pid(), "iccl",
      "heal: adopted orphan rank " + std::to_string(src) + " (climbed past " +
          std::to_string(via.size()) + " dead)");
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
    auto co = st.child_origins.find(dead_child);
    if (co == st.child_origins.end()) continue;
    std::vector<std::uint32_t> moved;
    for (auto oit = co->second.begin(); oit != co->second.end();) {
      if (std::binary_search(osub.begin(), osub.end(), *oit)) {
        moved.push_back(*oit);
        oit = co->second.erase(oit);
      } else {
        ++oit;
      }
    }
    if (!moved.empty()) {
      st.child_origins[src].insert(moved.begin(), moved.end());
      st.rndv_children.insert(src);
    }
  }
  heal_replay_bcasts(src, open, delivered);
  heal_check_slot(dead_child);
}

void Iccl::heal_replay_bcasts(
    std::uint32_t orphan,
    const std::map<StreamKey,
                   std::pair<std::uint32_t, std::uint32_t>>& open_recvs,
    const std::set<StreamKey>& delivered) {
  const std::uint32_t chunk = self_.machine().costs().iccl_rndv_chunk_bytes;
  // Live rendezvous rounds first: the orphan catches up to this node's
  // scheduled sequence from its own receive offset and rides the ongoing
  // stream from there (it is in children_ now, so chunks scheduled after
  // this event reach it natively and in order).
  for (const auto& [tag, snd] : rndv_sends_) {
    if (delivered.count(tag) != 0) continue;
    auto open = open_recvs.find(tag);
    const std::uint32_t from =
        open != open_recvs.end() ? open->second.first : 0;
    if (open == open_recvs.end()) {
      ByteWriter w;
      w.u32(snd.total);
      send_to_child(orphan,
                    encode_frame(Kind::RndvRts, tag, params_.rank,
                                 {{snd.nchunks, std::move(w).take()}}));
    }
    self_.machine().count("iccl.heal.bcast_replays");
    for (std::uint32_t seq = from; seq < snd.next_seq; ++seq) {
      send_to_child(orphan, payload_frame(Kind::RndvChunk, tag, params_.rank,
                                          seq, snd.ready[seq]));
      self_.machine().count("iccl.heal.bcast_replay_bytes",
                            static_cast<double>(snd.ready[seq].size()));
    }
  }
  // Delivered history: rounds the orphan missed entirely, or was mid-
  // receive on when the live send state already retired here. The orphan's
  // own history guard makes a replay of an already-delivered round inert.
  for (StreamKey tag : bcast_history_order_) {
    if (delivered.count(tag) != 0) continue;
    if (rndv_sends_.count(tag) != 0) continue;  // caught up above
    const ByteSlice& payload = bcast_history_.at(tag);
    const auto total = static_cast<std::uint32_t>(payload.size());
    auto open = open_recvs.find(tag);
    self_.machine().count("iccl.heal.bcast_replays");
    if (open == open_recvs.end() && !use_rendezvous(total)) {
      send_to_child(orphan,
                    payload_frame(Kind::Bcast, tag, params_.rank, 0, payload));
      self_.machine().count("iccl.heal.bcast_replay_bytes",
                            static_cast<double>(total));
      continue;
    }
    // Rendezvous: the whole round for a missed tag, or the rest of the
    // chunk stream the orphan already assembled a prefix of. Every chunk
    // views the delivered payload.
    const std::uint32_t nchunks = (total + chunk - 1) / chunk;
    std::uint32_t from = 0;
    if (open != open_recvs.end()) {
      from = open->second.first;
    } else {
      ByteWriter w;
      w.u32(total);
      send_to_child(orphan,
                    encode_frame(Kind::RndvRts, tag, params_.rank,
                                 {{nchunks, std::move(w).take()}}));
    }
    for (std::uint32_t seq = from; seq < nchunks; ++seq) {
      const std::size_t begin = static_cast<std::size_t>(seq) * chunk;
      const std::size_t len = std::min<std::size_t>(chunk, total - begin);
      send_to_child(orphan, payload_frame(Kind::RndvChunk, tag, params_.rank,
                                          seq, payload.sub(begin, len)));
      self_.machine().count("iccl.heal.bcast_replay_bytes",
                            static_cast<double>(len));
    }
  }
  // Anything the orphan was mid-receive on that this node can no longer
  // source (evicted from the ring) stays incomplete there; surface it.
  for (const auto& [tag, prog] : open_recvs) {
    if (delivered.count(tag) != 0 || rndv_sends_.count(tag) != 0 ||
        bcast_history_.count(tag) != 0) {
      continue;
    }
    self_.machine().flight_record(
        self_.pid(), "iccl",
        "heal: cannot replay bcast tag " + tag.str() +
            " for orphan " + std::to_string(orphan) + " (history evicted)");
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
  const std::uint32_t chunk = self_.machine().costs().iccl_rndv_chunk_bytes;
  for (const auto& [origin, blob] : entries) {
    ByteReader r(blob.span());
    const std::uint32_t from = r.u32().value_or(0);
    // Unscheduled queue entries for this origin are superseded: the
    // retained view re-queued below covers them from the adopter's offset.
    st.outq.erase(
        std::remove_if(
            st.outq.begin() + static_cast<std::ptrdiff_t>(st.next_out),
            st.outq.end(),
            [origin = origin](const auto& e) { return e.first == origin; }),
        st.outq.end());
    auto ret = st.retained.find(origin);
    if (ret == st.retained.end()) continue;
    const ByteSlice kept = ret->second.join();
    const auto total = static_cast<std::uint32_t>(kept.size());
    for (std::uint32_t begin = from; begin < total; begin += chunk) {
      const std::uint32_t len = std::min(chunk, total - begin);
      st.outq.emplace_back(origin, kept.sub(begin, len));
      self_.machine().count("iccl.heal.gather_requeued_bytes",
                            static_cast<double>(len));
    }
  }
  gather_flush(tag, st);
  gather_relay_maybe_done(tag);
}

void Iccl::handle_gather_done(StreamKey tag) {
  // Propagate: every descendant can free its replay copy of the round.
  for (auto& [rank, ch] : children_) {
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
  if (left_) return;
  left_ = true;
  self_.machine().count("iccl.heal.leaves");
  self_.machine().flight_record(self_.pid(), "iccl",
                                "heal: rank " + std::to_string(params_.rank) +
                                    " leaving the session");
  if (!is_root() && parent_ != nullptr) {
    send_up(encode_frame(Kind::Leave, 0, params_.rank));
  }
  // Give the frame a head start, then exit. Children notice the closed
  // links and heal onto an ancestor through the normal reparent path.
  self_.post(sim::ms(2), [this] { self_.exit(0); });
}

void Iccl::handle_leave(std::uint32_t src) {
  self_.machine().count("iccl.heal.leaves_observed");
  self_.machine().flight_record(self_.pid(), "iccl",
                                "heal: child rank " + std::to_string(src) +
                                    " left gracefully");
  auto it = children_.find(src);
  if (it == children_.end()) return;
  // Run the lost-child bookkeeping now; the close callback that follows
  // finds the rank already erased and no-ops.
  on_child_lost(it->second);
}

// --- multiplexed delivery / fairness --------------------------------------

void Iccl::deliver_bcast(StreamKey tag, const ByteSlice& data) {
  auto it = session_handlers_.find(tag.session);
  if (it == session_handlers_.end() || !it->second.on_bcast) {
    self_.machine().count("iccl.mux.unbound_drops");
    return;
  }
  if (const Bytes* whole = data.whole()) {
    it->second.on_bcast(tag.tag, *whole);
  } else {
    it->second.on_bcast(tag.tag, data.to_bytes());
  }
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
  if (const Bytes* whole = data.whole()) {
    it->second.on_scatter(tag.tag, *whole);
  } else {
    it->second.on_scatter(tag.tag, data.to_bytes());
  }
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
  if (parent_ != nullptr) self_.send(parent_, std::move(m));
}

void Iccl::send_to_child(std::uint32_t child_rank, cluster::Message m) {
  auto it = children_.find(child_rank);
  if (it != children_.end()) self_.send(it->second, std::move(m));
}

}  // namespace lmon::core
