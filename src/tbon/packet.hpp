// packet.hpp - TBON wire unit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/message.hpp"
#include "common/bytes.hpp"

namespace lmon::tbon {

enum class PacketKind : std::uint8_t {
  Hello = 1,      ///< child -> parent: {node_index}
  SubtreeUp,      ///< child -> parent: subtree fully connected
  Down,           ///< root -> leaves: stream broadcast
  Up,             ///< leaf/comm -> root: (filtered) upstream data
  NewStream,      ///< root -> all: create stream {stream, filter_id}
  UpPart,         ///< leaf/comm -> root: partial upstream contribution;
                  ///< the sender stays pending until its final Up
};

/// One TBON frame. Upstream packets carry the set of contributing back-end
/// ranks so filters can track coverage. The wire form keeps a reserved u32,
/// always 0, after the kind: every simulated TBON timing includes its bytes.
struct Packet {
  PacketKind kind = PacketKind::Down;
  std::uint32_t stream = 0;
  std::uint32_t tag = 0;
  std::uint32_t filter = 0;     ///< NewStream only
  std::int32_t node_index = -1; ///< Hello/SubtreeUp
  std::vector<std::uint32_t> ranks;  ///< Up: contributing BE ranks
  Bytes data;

  [[nodiscard]] cluster::Message encode() const;
  static std::optional<Packet> decode(const cluster::Message& m);
};

}  // namespace lmon::tbon
