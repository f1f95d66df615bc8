#include "simkernel/simulator.hpp"

#include <cassert>
#include <stdexcept>

namespace lmon::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

void Simulator::schedule(Time delay, Task fn) {
  if (delay < 0) delay = 0;
  queue_.push(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(Time when, Task fn) {
  if (when < now_) when = now_;
  queue_.push(when, std::move(fn));
}

std::size_t Simulator::run(Time until) {
  std::size_t count = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    const Time when = queue_.next_time();
    assert(when >= now_ && "time must be monotonic");
    Task fn = queue_.pop();
    now_ = when;
    fn();
    ++count;
    ++executed_;
    if (event_limit_ != 0 && count > event_limit_) {
      throw std::runtime_error(
          "Simulator event limit exceeded: likely a protocol livelock");
    }
  }
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  now_ = queue_.next_time();
  Task fn = queue_.pop();
  fn();
  ++executed_;
  return true;
}

}  // namespace lmon::sim
