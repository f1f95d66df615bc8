// event_queue.hpp - the pending-event set of the discrete-event simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "simkernel/task.hpp"
#include "simkernel/time.hpp"

namespace lmon::sim {

/// Min-heap of timestamped tasks with stable FIFO ordering for equal
/// timestamps. The heap orders small trivially copyable records by
/// (when, seq); each record names a slot in a slab of tasks, and popped
/// slots go on a free list for the next push. Once the slab has grown to
/// the peak number of pending events, push and pop allocate nothing. Events
/// cannot be cancelled: a stale timer checks its own state when it fires.
class EventQueue {
 public:
  void push(Time when, Task fn);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the next event; only valid when !empty().
  [[nodiscard]] Time next_time() const { return heap_.front().when; }

  /// Removes and returns the next event's task; its timestamp is the
  /// next_time() read before the call. Precondition: !empty().
  Task pop();

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;   ///< push order: the FIFO tie-break
    std::uint32_t slot;  ///< index into slab_
    // std heap algorithms keep the greatest on top; with std::greater<>
    // that is the earliest (when, seq).
    bool operator>(const Entry& o) const noexcept {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  std::vector<Entry> heap_;
  std::vector<Task> slab_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace lmon::sim
