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
// unpack()). Most daemons only ever ask for their own host's entries: a
// host index of entry offsets, built once per buffer and shared by every
// table that views it, lets each decode only those. The full TaskDesc
// vector is decoded only when entries() is first called and then cached.
#pragma once

#include <cstdint>
#include <memory>
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

  /// Entries co-located on `host`, in rank order - what a back-end daemon
  /// should attach to. Decodes only the matching entries; the first call on
  /// a buffer indexes it by host for every table that views it.
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
  /// Validates each view once (LastView): every daemon of a launch unpacks
  /// the one handshake broadcast, and their tables share one host index.
  static std::optional<Rpdtab> unpack(ByteSlice data);
  /// unpack() of an owned blob.
  static std::optional<Rpdtab> unpack(Bytes data);

  /// The encoding is deterministic, so equal bytes mean equal entries.
  friend bool operator==(const Rpdtab& a, const Rpdtab& b);

  struct HostIndex;

 private:
  Rpdtab(ByteSlice packed, std::uint32_t count,
         std::shared_ptr<HostIndex> index)
      : packed_(std::move(packed)), count_(count), index_(std::move(index)) {}

  ByteSlice packed_;
  std::uint32_t count_ = 0;
  mutable std::optional<std::vector<rm::TaskDesc>> entries_;  // decode cache
  /// entries_for_host() lookups; shared by the tables unpack() returns for
  /// one buffer, made on first use by any other table.
  mutable std::shared_ptr<HostIndex> index_;
};

}  // namespace lmon::core
