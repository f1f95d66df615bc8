// rpdtab.hpp - the Remote Process Descriptor Table.
//
// LaunchMON's portable view of "which task runs where": hostname, executable
// and pid per MPI task (paper §2). Fetched by the engine from the RM
// launcher's address space, shipped FE-ward over LMONP, broadcast to daemons
// during the handshake. Its linear size in job tasks is the paper's Region B
// term, so pack() produces real bytes.
//
// The table's state is an immutable view (ByteSlice) of its validated packed
// form (the MPIR proctable blob layout). A launch has one such buffer: every
// daemon's table views the handshake broadcast in place, and unpack()
// validates a given buffer once however many daemons unpack it (see
// unpack()). Most daemons only ever ask for their own host's entries, so the
// full TaskDesc vector is decoded only when entries() is first called and
// then cached.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "rm/types.hpp"

namespace lmon::core {

class Rpdtab {
 public:
  Rpdtab();
  explicit Rpdtab(std::vector<rm::TaskDesc> entries);

  /// Every entry in rank order; decoded from the packed bytes on first use.
  [[nodiscard]] const std::vector<rm::TaskDesc>& entries() const;
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Unique hosts in first-appearance (rank) order: the node set a tool
  /// needs daemons on.
  [[nodiscard]] std::vector<std::string> hosts() const;

  /// Entries co-located on `host` - what a back-end daemon should attach to.
  /// Decodes only the matching entries.
  [[nodiscard]] std::vector<rm::TaskDesc> entries_for_host(
      const std::string& host) const;

  /// The packed bytes, in place in the buffer this table views.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return packed_.span();
  }
  /// An owned copy of the packed bytes.
  [[nodiscard]] Bytes pack() const { return packed_.to_bytes(); }

  /// Validates the viewed blob without decoding it and keeps a view of it
  /// (no copy) as the table's state; nullopt for a truncated or
  /// inconsistent blob. Bytes past the last entry fall outside the view.
  ///
  /// The last accepted view is remembered by its buffer's identity, start
  /// and length, so unpacking that same view again - as every daemon of a
  /// launch does with the one handshake broadcast - costs O(1). This is
  /// sound because a shared ByteSlice buffer is never written, and no fault
  /// mode alters payload bytes in flight; drop the memo if one ever does.
  static std::optional<Rpdtab> unpack(ByteSlice data);
  /// unpack() of an owned blob.
  static std::optional<Rpdtab> unpack(Bytes data);

  /// The encoding is deterministic, so equal bytes mean equal entries.
  friend bool operator==(const Rpdtab& a, const Rpdtab& b);

 private:
  Rpdtab(ByteSlice packed, std::uint32_t count)
      : packed_(std::move(packed)), count_(count) {}

  ByteSlice packed_;
  std::uint32_t count_ = 0;
  mutable std::optional<std::vector<rm::TaskDesc>> entries_;  // decode cache
};

}  // namespace lmon::core
