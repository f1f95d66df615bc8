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
///
/// Beside the heap sit FIFO lanes, one per fixed delay a caller names with
/// push_fixed(). Records pushed at now + d from a clock that never goes
/// back arrive in (when, seq) order already, so a lane is a plain ring and
/// pop() takes the earliest of the heap top and the lane heads: the pop
/// order is exactly the order one heap holding every record would give.
/// Lane records share the slab and the one seq counter.
class EventQueue {
 public:
  void push(Time when, Task fn);

  /// Pushes onto the lane for `delay`, created on first use. Precondition:
  /// `when` is not earlier than any earlier push on that lane, which holds
  /// when every push is now + delay on a monotonic clock.
  void push_fixed(Time delay, Time when, Task fn);

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + lane_pending_;
  }

  /// Timestamp of the next event; only valid when !empty().
  [[nodiscard]] Time next_time() const;

  struct Event {
    Time when;
    Task fn;
  };
  /// Removes the next event and returns its timestamp and task.
  /// Precondition: !empty().
  Event pop();

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

  /// Ring of records in push order; the buffer doubles when full and is
  /// never shrunk, so a lane stops allocating at its peak.
  struct Lane {
    explicit Lane(Time d) : delay(d) {}

    Time delay;
    std::vector<Entry> ring;  ///< size is 0 or a power of two
    std::size_t head = 0;
    std::size_t count = 0;

    [[nodiscard]] const Entry& front() const { return ring[head]; }
    void push(const Entry& e);
    void pop_front() noexcept {
      head = (head + 1) & (ring.size() - 1);
      --count;
    }
  };

  std::uint32_t store(Task fn);
  /// True when the next record is a lane head rather than the heap top.
  [[nodiscard]] bool lane_is_next() const noexcept {
    return lane_pending_ != 0 &&
           (heap_.empty() || heap_.front() > first_lane_head_);
  }
  /// Recomputes first_lane_ and first_lane_head_ from the lane heads.
  void find_first_lane() noexcept;

  std::vector<Entry> heap_;
  std::size_t lane_pending_ = 0;
  // The earliest lane head and its lane, held here so that each pop
  // compares the heap top with one record instead of visiting every lane.
  // Valid while lane_pending_ != 0.
  Entry first_lane_head_{};
  std::size_t first_lane_ = 0;
  std::vector<Lane> lanes_;
  std::vector<Task> slab_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace lmon::sim
