#include "simkernel/simulator.hpp"

#include <algorithm>
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
  for_each_timer(
      [&](const Timer& t) { now_ = std::max(now_, t.latest_by(until)); });
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  run_next();
  return true;
}

bool Simulator::step_within(Time deadline) {
  if (!queue_.empty() && queue_.next_time() <= deadline) {
    run_next();
    return true;
  }
  Time firing = kNever;
  for_each_timer([&](const Timer& t) {
    now_ = std::max(now_, t.latest_by(deadline));
    firing = std::min(firing, t.first_after(deadline));
  });
  if (!queue_.empty() && queue_.next_time() < firing) {
    run_next();
  } else if (firing != kNever) {
    now_ = std::max(now_, firing);
  }
  return false;
}

// --- lazy periodic timers ---------------------------------------------------

Time Simulator::Timer::latest_by(Time t) const noexcept {
  const Time hi = std::min(t, last);
  if (hi == kNever || hi < origin + period) return -1;
  return origin + (hi - origin) / period * period;
}

Time Simulator::Timer::first_after(Time t) const noexcept {
  const Time periods = (std::max(t, origin) - origin) / period + 1;
  const Time next = origin + periods * period;
  return next <= last ? next : kNever;
}

template <typename Fn>
void Simulator::for_each_timer(Fn&& fn) {
  for (TimerId id = 0; id < timers_.size(); ++id) {
    Timer& t = timers_[id];
    if (t.period == 0) continue;  // a free slot
    if (t.dropped && t.last <= now_) {
      t.period = 0;
      free_timers_.push_back(id);
      continue;
    }
    fn(t);
  }
}

Simulator::TimerId Simulator::start_timer(Time period) {
  assert(period > 0 && "a timer needs a period");
  const Timer t{now_, period, kNever, false};
  if (free_timers_.empty()) {
    timers_.push_back(t);
    return static_cast<TimerId>(timers_.size() - 1);
  }
  const TimerId id = free_timers_.back();
  free_timers_.pop_back();
  timers_[id] = t;
  return id;
}

void Simulator::reset_timer(TimerId id) {
  Timer& t = timers_[id];
  t.origin = now_;
  t.last = kNever;
}

Time Simulator::park_timer(TimerId id) {
  Timer& t = timers_[id];
  if (t.last == kNever) t.last = t.first_after(now_);
  return t.last;
}

void Simulator::unpark_timer(TimerId id) { timers_[id].last = kNever; }

void Simulator::drop_timer(TimerId id) {
  Timer& t = timers_[id];
  if (t.last == kNever) t.last = t.first_after(now_);
  t.dropped = true;
}

}  // namespace lmon::sim
