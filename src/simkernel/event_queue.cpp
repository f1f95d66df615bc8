#include "simkernel/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace lmon::sim {

void EventQueue::push(Time when, Task fn) {
  auto slot = static_cast<std::uint32_t>(slab_.size());
  if (free_.empty()) {
    slab_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(fn);
  }
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

Task EventQueue::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  // Move the task out before it runs: it may push events that reuse the
  // slot or grow the slab.
  Task fn = std::move(slab_[slot]);
  free_.push_back(slot);
  return fn;
}

}  // namespace lmon::sim
