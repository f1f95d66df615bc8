// simulator.hpp - single-threaded deterministic discrete-event simulator.
//
// The whole reproduction runs inside one Simulator: cluster nodes, processes,
// the resource manager, LaunchMON components and the tools are all actors
// whose interactions are mediated by scheduled events. Wall-clock time plays
// no role; "measured" times in the benches are differences of sim timestamps.
//
// Beside the event queue the simulator keeps lazy periodic timers: state,
// not events. A timer comes due every period from its origin, puts nothing
// on the queue and runs no code; its owner applies what the firings mean
// when something reads the state they advance (Process::catch_up_ticks).
// The kernel still moves the clock over firings the way the events they
// stand for would have moved it: see run() and step_within().
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "simkernel/event_queue.hpp"
#include "simkernel/rng.hpp"
#include "simkernel/task.hpp"
#include "simkernel/time.hpp"

namespace lmon::sim {

/// A time no event or firing reaches: "no bound" / "none".
inline constexpr Time kNever = std::numeric_limits<Time>::max();

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

  /// Runs events until the queue drains or `until` is passed. Returns the
  /// number of events executed. now() is left at the later of the last
  /// event run and the last timer firing due by `until`: where a loop that
  /// ran each firing as an event would have left it. Without a bound, only
  /// timers that end (parked or dropped) count; a running one never does.
  std::size_t run(Time until = kNever);

  /// Executes exactly one event if available; returns false when idle.
  /// Timer firings before it are passed over: they run nothing.
  bool step();

  /// One turn of a bounded wait. Runs the next event and returns true when
  /// it is due by `deadline`. Otherwise gives up, returning false, where a
  /// step() loop that ran each timer firing as an event would have: past
  /// the firings due by the deadline, it runs the first event after it, or
  /// only moves now() to the first firing after it when that comes first
  /// (a firing goes before an event at the same time).
  bool step_within(Time deadline);

  /// True when no event is queued; a timer alone does not count.
  [[nodiscard]] bool idle() const { return queue_.empty(); }
  /// Queued events; timers are not events and do not count.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::size_t executed_events() const { return executed_; }

  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Safety valve for runaway protocols: run() aborts (via assert/throw) if
  /// more than this many events execute in one call. 0 disables the check.
  void set_event_limit(std::size_t limit) { event_limit_ = limit; }

  // --- lazy periodic timers ------------------------------------------------
  using TimerId = std::uint32_t;

  /// Starts a timer with origin now(): due at now() + period, now() +
  /// 2 * period, ... without end.
  TimerId start_timer(Time period);
  /// Restarts the timer's phase at now(), without end.
  void reset_timer(TimerId id);
  /// Ends the timer at its first firing after now() and returns that
  /// firing. A firing at now() itself has already come due: a firing goes
  /// before every other event at its time.
  Time park_timer(TimerId id);
  /// Undoes park_timer() before the parked firing: the phase is unchanged.
  void unpark_timer(TimerId id);
  /// Gives the timer up. A running timer ends as park_timer() would end it,
  /// a parked one keeps its end; the id is reused once that end has passed.
  void drop_timer(TimerId id);

 private:
  struct Timer {
    Time origin;
    Time period;
    Time last;  ///< the final firing; kNever while the timer runs
    bool dropped;

    /// The latest firing due by `t`, or -1 when none is.
    [[nodiscard]] Time latest_by(Time t) const noexcept;
    /// The first firing after `t`, or kNever when the timer ends first.
    [[nodiscard]] Time first_after(Time t) const noexcept;
  };

  /// Pops and runs the next event: the one place events run.
  /// Precondition: !idle().
  void run_next();
  /// Calls fn(const Timer&) for every live timer; frees the slots of
  /// dropped timers that have ended on the way.
  template <typename Fn>
  void for_each_timer(Fn&& fn);

  Time now_ = 0;
  EventQueue queue_;
  Rng rng_;
  std::size_t executed_ = 0;
  std::size_t event_limit_ = 0;
  std::vector<Timer> timers_;
  std::vector<TimerId> free_timers_;
};

}  // namespace lmon::sim
