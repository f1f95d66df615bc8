#include "tbon/packet.hpp"

namespace lmon::tbon {

cluster::Message Packet::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(0);  // reserved
  w.u32(stream);
  w.u32(tag);
  w.u32(filter);
  w.i32(node_index);
  w.u32(static_cast<std::uint32_t>(ranks.size()));
  for (std::uint32_t r : ranks) w.u32(r);
  w.blob(data);
  return cluster::Message(std::move(w).take());
}

std::optional<Packet> Packet::decode(const cluster::Message& m) {
  ByteReader r(m.bytes);
  Packet p;
  auto kind = r.u8();
  auto reserved = r.u32();
  auto stream = r.u32();
  auto tag = r.u32();
  auto filter = r.u32();
  auto node_index = r.i32();
  auto nranks = r.u32();
  if (!kind || !reserved || !stream || !tag || !filter || !node_index ||
      !nranks) {
    return std::nullopt;
  }
  p.kind = static_cast<PacketKind>(*kind);
  p.stream = *stream;
  p.tag = *tag;
  p.filter = *filter;
  p.node_index = *node_index;
  p.ranks.reserve(*nranks);
  for (std::uint32_t i = 0; i < *nranks; ++i) {
    auto rank = r.u32();
    if (!rank) return std::nullopt;
    p.ranks.push_back(*rank);
  }
  auto data = r.blob();
  if (!data) return std::nullopt;
  p.data = std::move(*data);
  return p;
}

}  // namespace lmon::tbon
