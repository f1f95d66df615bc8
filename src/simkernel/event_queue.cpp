#include "simkernel/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace lmon::sim {

std::uint32_t EventQueue::store(Task fn) {
  if (free_.empty()) {
    slab_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  slab_[slot] = std::move(fn);
  return slot;
}

void EventQueue::push(Time when, Task fn) {
  heap_.push_back(Entry{when, next_seq_++, store(std::move(fn))});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

EventQueue::Event EventQueue::pop() {
  assert(!empty());
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const Entry e = heap_.back();
  heap_.pop_back();
  // Move the task out before it runs: it may push events that reuse the
  // slot or grow the slab.
  Event ev{e.when, std::move(slab_[e.slot])};
  free_.push_back(e.slot);
  return ev;
}

}  // namespace lmon::sim
