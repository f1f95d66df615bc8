// format.hpp - Jobsnap's per-task snapshot record (paper §5.1).
//
// "Jobsnap gathers the distributed state of a parallel application
//  including the task's personality (such as its rank and executable name),
//  state (process state, program counter value and the number of active
//  threads) and various memory statistics ... as well as simple performance
//  metrics including user time, system time and the number of major page
//  faults."
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/types.hpp"
#include "common/bytes.hpp"

namespace lmon::tools::jobsnap {

struct TaskSnapshot {
  std::int32_t rank = -1;
  std::string host;
  cluster::Pid pid = cluster::kInvalidPid;
  std::string executable;
  char state = '?';
  std::uint64_t program_counter = 0;
  std::uint32_t num_threads = 0;
  std::uint64_t vm_hwm_kb = 0;
  std::uint64_t vm_lck_kb = 0;
  std::uint64_t utime_ms = 0;
  std::uint64_t stime_ms = 0;
  std::uint64_t maj_faults = 0;

  void encode(ByteWriter& w) const;
  /// Bytes encode() writes: 73 of fixed-width fields and string lengths,
  /// plus the two strings.
  [[nodiscard]] std::size_t encoded_size() const {
    return 73 + host.size() + executable.size();
  }
  static std::optional<TaskSnapshot> decode(ByteReader& r);

  /// One line of the report, exactly the "one line info per task" the
  /// master daemon emits.
  [[nodiscard]] std::string format_line() const;
};

Bytes encode_snapshots(const std::vector<TaskSnapshot>& snaps);
std::optional<std::vector<TaskSnapshot>> decode_snapshots(
    std::span<const std::uint8_t> data);

/// Header line for the report table.
std::string report_header();

}  // namespace lmon::tools::jobsnap
