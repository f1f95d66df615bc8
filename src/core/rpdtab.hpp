// rpdtab.hpp - the Remote Process Descriptor Table.
//
// LaunchMON's portable view of "which task runs where": hostname, executable
// and pid per MPI task (paper §2). Fetched by the engine from the RM
// launcher's address space, shipped FE-ward over LMONP, broadcast to daemons
// during the handshake. Its linear size in job tasks is the paper's Region B
// term, so pack() produces real bytes.
//
// The table's state is its validated packed form (the MPIR proctable blob
// layout). Every daemon of a launch holds one, and most only ever ask for
// their own host's entries, so the full TaskDesc vector is decoded only when
// entries() is first called and then cached.
#pragma once

#include <cstdint>
#include <optional>
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

  [[nodiscard]] Bytes pack() const& { return packed_; }
  [[nodiscard]] Bytes pack() && { return std::move(packed_); }

  /// Validates the whole blob without decoding it and keeps it as the
  /// table's state; nullopt for a truncated or inconsistent blob. Bytes past
  /// the last entry are dropped.
  static std::optional<Rpdtab> unpack(Bytes data);

  /// The proctable blob format used in the launcher's address space is the
  /// same; these adapt to/from the APAI layer.
  static std::optional<Rpdtab> from_proctable_blob(Bytes blob);

  /// The encoding is deterministic, so equal bytes mean equal entries.
  friend bool operator==(const Rpdtab& a, const Rpdtab& b) {
    return a.packed_ == b.packed_;
  }

 private:
  Rpdtab(Bytes packed, std::uint32_t count)
      : packed_(std::move(packed)), count_(count) {}

  Bytes packed_;
  std::uint32_t count_ = 0;
  mutable std::optional<std::vector<rm::TaskDesc>> entries_;  // decode cache
};

}  // namespace lmon::core
