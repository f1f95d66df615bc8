// simulator.hpp - single-threaded deterministic discrete-event simulator.
//
// The whole reproduction runs inside one Simulator: cluster nodes, processes,
// the resource manager, LaunchMON components and the tools are all actors
// whose interactions are mediated by scheduled events. Wall-clock time plays
// no role; "measured" times in the benches are differences of sim timestamps.
#pragma once

#include <cstdint>
#include <limits>

#include "simkernel/event_queue.hpp"
#include "simkernel/rng.hpp"
#include "simkernel/task.hpp"
#include "simkernel/time.hpp"

namespace lmon::sim {

class Simulator {
 public:
  /// `seed` drives every stochastic cost draw in the simulation; two runs
  /// with the same seed produce bit-identical results.
  explicit Simulator(std::uint64_t seed = 0x1a57c40eULL);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `fn` to run at now()+delay. Negative delays are clamped to 0
  /// (events never run in the past). There is no cancel: a timer that may
  /// go stale checks its owner's state when it fires.
  void schedule(Time delay, Task fn);

  /// Schedules at an absolute timestamp (>= now()).
  void schedule_at(Time when, Task fn);

  /// Schedules `fn` at now()+delay on the queue's FIFO lane for `delay`
  /// (see EventQueue). It runs exactly when schedule(delay, fn) would; the
  /// lane only saves the heap work. Meant for a delay that many events
  /// repeat, such as a periodic tick: each distinct delay adds a lane that
  /// every pop() compares, so the call site, not the kernel, picks lanes.
  void schedule_fixed(Time delay, Task fn);

  /// Runs events until the queue drains or `until` is passed. Returns the
  /// number of events executed.
  std::size_t run(Time until = std::numeric_limits<Time>::max());

  /// Executes exactly one event if available; returns false when idle.
  bool step();

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::size_t executed_events() const { return executed_; }

  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Safety valve for runaway protocols: run() aborts (via assert/throw) if
  /// more than this many events execute in one call. 0 disables the check.
  void set_event_limit(std::size_t limit) { event_limit_ = limit; }

 private:
  /// Pops and runs the next event: the one place time advances.
  /// Precondition: !idle().
  void run_next();

  Time now_ = 0;
  EventQueue queue_;
  Rng rng_;
  std::size_t executed_ = 0;
  std::size_t event_limit_ = 0;
};

}  // namespace lmon::sim
