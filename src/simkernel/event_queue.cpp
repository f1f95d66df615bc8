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

void EventQueue::Lane::push(const Entry& e) {
  if (count == ring.size()) {
    std::vector<Entry> grown(ring.empty() ? 16 : 2 * ring.size());
    for (std::size_t i = 0; i < count; ++i) {
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    }
    ring = std::move(grown);
    head = 0;
  }
  assert((count == 0 || ring[(head + count - 1) & (ring.size() - 1)].when <=
                            e.when) &&
         "a fixed-delay lane must be pushed in time order");
  ring[(head + count) & (ring.size() - 1)] = e;
  ++count;
}

void EventQueue::push_fixed(Time delay, Time when, Task fn) {
  auto lane = std::find_if(lanes_.begin(), lanes_.end(),
                           [&](const Lane& l) { return l.delay == delay; });
  if (lane == lanes_.end()) lane = lanes_.insert(lanes_.end(), Lane{delay});
  const Entry e{when, next_seq_++, store(std::move(fn))};
  lane->push(e);
  // A lane that already held records has a head no later than `e`, so
  // only a lane that was empty can take the lead.
  if (lane_pending_++ == 0 || first_lane_head_ > e) {
    first_lane_head_ = e;
    first_lane_ = static_cast<std::size_t>(lane - lanes_.begin());
  }
}

void EventQueue::find_first_lane() noexcept {
  bool found = false;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = lanes_[i];
    if (lane.count != 0 && (!found || first_lane_head_ > lane.front())) {
      found = true;
      first_lane_head_ = lane.front();
      first_lane_ = i;
    }
  }
}

Time EventQueue::next_time() const {
  return lane_is_next() ? first_lane_head_.when : heap_.front().when;
}

EventQueue::Event EventQueue::pop() {
  assert(!empty());
  Entry e{};
  if (lane_is_next()) {
    e = first_lane_head_;
    lanes_[first_lane_].pop_front();
    if (--lane_pending_ != 0) find_first_lane();
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    e = heap_.back();
    heap_.pop_back();
  }
  // Move the task out before it runs: it may push events that reuse the
  // slot or grow the slab.
  Event ev{e.when, std::move(slab_[e.slot])};
  free_.push_back(e.slot);
  return ev;
}

}  // namespace lmon::sim
