// message.hpp - unit of transfer on a simulated channel.
#pragma once

#include <utility>

#include "common/bytes.hpp"

namespace lmon::cluster {

/// One wire image: an already-serialized header, followed by an optional
/// immutable view of payload bytes that already exist elsewhere (the zero-
/// copy data plane; see docs/ARCHITECTURE.md). The network charges transfer
/// time by size(), header plus view, so a frame costs exactly what it would
/// if the payload had been copied in behind the header. Protocols without
/// bulk payload leave the view empty and keep the whole frame in `bytes`.
struct Message {
  lmon::Bytes bytes;
  lmon::ByteSlice view;

  Message() = default;
  explicit Message(lmon::Bytes b) : bytes(std::move(b)) {}
  Message(lmon::Bytes header, lmon::ByteSlice payload)
      : bytes(std::move(header)), view(std::move(payload)) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return bytes.size() + view.size();
  }
};

}  // namespace lmon::cluster
