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

void Simulator::schedule_fixed(Time delay, Task fn) {
  if (delay < 0) delay = 0;
  queue_.push_fixed(delay, now_ + delay, std::move(fn));
}

void Simulator::run_next() {
  EventQueue::Event ev = queue_.pop();
  assert(ev.when >= now_ && "time must be monotonic");
  now_ = ev.when;
  ev.fn();
  ++executed_;
}

std::size_t Simulator::run(Time until) {
  std::size_t count = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    run_next();
    ++count;
    if (event_limit_ != 0 && count > event_limit_) {
      throw std::runtime_error(
          "Simulator event limit exceeded: likely a protocol livelock");
    }
  }
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  run_next();
  return true;
}

}  // namespace lmon::sim
