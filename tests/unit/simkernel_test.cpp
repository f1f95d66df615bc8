// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <set>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/argparse.hpp"
#include "simkernel/log.hpp"
#include "simkernel/simulator.hpp"
#include "simkernel/stats.hpp"

namespace lmon::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(3); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoForEqualTimestamps) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

// Seeded interleavings of pushes (mostly at a handful of equal timestamps),
// pops, and pushes made from inside callbacks into just-freed slots. At
// every step size() and next_time() must match a reference holding every
// record in one set ordered by (when, push index), and every pop must take
// its first record.
TEST(EventQueue, MatchesReferenceOrderUnderSlotReuse) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::set<std::pair<Time, int>> reference;  // (when, push index)
    Time now = 0;
    int pushes = 0;
    int last_fired = -1;
    int ties = 0;  // pops tied on time with the next record
    std::size_t peak = 0;

    std::function<void()> push = [&] {
      const int index = pushes++;
      const Time when = now + static_cast<Time>(rng.next_below(8));
      reference.emplace(when, index);
      const bool nested = rng.next_below(3) == 0;
      // The popped slot is free again: refill it from inside the callback.
      q.push(when, [&, index, nested] {
        last_fired = index;
        if (nested) push();
      });
      peak = std::max(peak, q.size());
    };
    auto pop_one = [&](int step) {
      const auto expected = reference.begin();
      const auto [want_when, want] = *expected;
      const auto next = std::next(expected);
      if (next != reference.end() && next->first == want_when) ++ties;
      reference.erase(expected);
      EventQueue::Event ev = q.pop();
      ASSERT_EQ(ev.when, want_when) << "seed " << seed << " step " << step;
      now = ev.when;
      ev.fn();
      ASSERT_EQ(last_fired, want) << "seed " << seed << " step " << step;
    };

    for (int step = 0; step < 400; ++step) {
      ASSERT_EQ(q.size(), reference.size()) << "seed " << seed;
      if (!q.empty()) {
        ASSERT_EQ(q.next_time(), reference.begin()->first)
            << "seed " << seed << " step " << step;
      }
      if (q.empty() || rng.next_below(5) < 3) {
        push();
      } else {
        pop_one(step);
      }
    }
    while (!q.empty()) {
      ASSERT_EQ(q.size(), reference.size()) << "seed " << seed;
      ASSERT_EQ(q.next_time(), reference.begin()->first);
      pop_one(-1);
    }
    EXPECT_TRUE(reference.empty());
    // The slab never holds more than `peak` tasks, so most pushes went into
    // recycled slots, and records tied on timestamps.
    EXPECT_GT(pushes, 2 * static_cast<int>(peak)) << "seed " << seed;
    EXPECT_GT(ties, 0) << "seed " << seed;
  }
}

/// Counts how many times the one logical capture it stands for is
/// destroyed; moved-from husks do not count.
struct DestroyProbe {
  int* destroyed;
  bool owner = true;
  explicit DestroyProbe(int* d) : destroyed(d) {}
  DestroyProbe(DestroyProbe&& o) noexcept
      : destroyed(o.destroyed), owner(std::exchange(o.owner, false)) {}
  DestroyProbe(const DestroyProbe&) = delete;
  DestroyProbe& operator=(const DestroyProbe&) = delete;
  DestroyProbe& operator=(DestroyProbe&&) = delete;
  ~DestroyProbe() {
    if (owner) ++*destroyed;
  }
};

TEST(Task, InlineCaptureIsDestroyedExactlyOnce) {
  int destroyed = 0;
  int calls = 0;
  {
    auto fn = [p = DestroyProbe(&destroyed), &calls] { ++calls; };
    static_assert(Task::stores_inline<decltype(fn)>);
    Task a(std::move(fn));
    Task b(std::move(a));
    EXPECT_FALSE(a);
    Task c;
    c = std::move(b);
    c();
    c();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(destroyed, 1);
}

TEST(Task, HeapFallbackCaptureIsDestroyedExactlyOnce) {
  int destroyed = 0;
  int calls = 0;
  {
    std::array<char, 2 * Task::kInlineBytes> big{};
    auto fn = [p = DestroyProbe(&destroyed), big, &calls] {
      calls += big[0] + 1;
    };
    static_assert(!Task::stores_inline<decltype(fn)>);
    Task a(std::move(fn));
    Task b(std::move(a));
    Task c([] {});
    c = std::move(b);  // drops the inline target it held
    c();
    EXPECT_EQ(destroyed, 0);
    c = nullptr;
    EXPECT_EQ(destroyed, 1);
    EXPECT_FALSE(c);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(Task, AcceptsMoveOnlyCapture) {
  int seen = 0;
  Task t([p = std::make_unique<int>(42), &seen] { seen = *p; });
  Task moved(std::move(t));
  moved();
  EXPECT_EQ(seen, 42);
}

TEST(Task, UnfiredTasksAreDestroyedWithTheSimulator) {
  int destroyed = 0;
  int fired = 0;
  {
    Simulator sim;
    std::array<char, 2 * Task::kInlineBytes> big{};
    sim.schedule(ms(1), [p = DestroyProbe(&destroyed), &fired] { ++fired; });
    sim.schedule(ms(5), [p = DestroyProbe(&destroyed), &fired] { ++fired; });
    sim.schedule(ms(6), [p = DestroyProbe(&destroyed), big, &fired] {
      fired += big[0] + 1;
    });
    sim.run(ms(2));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(destroyed, 1);  // the fired task, once it returned
    EXPECT_EQ(sim.pending_events(), 2u);
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(destroyed, 3);
}

TEST(Simulator, TimeAdvancesMonotonically) {
  Simulator sim;
  std::vector<Time> times;
  sim.schedule(ms(5), [&] { times.push_back(sim.now()); });
  sim.schedule(ms(1), [&] {
    times.push_back(sim.now());
    sim.schedule(ms(1), [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], ms(1));
  EXPECT_EQ(times[1], ms(2));
  EXPECT_EQ(times[2], ms(5));
}

TEST(Simulator, RunUntilBound) {
  Simulator sim;
  int fired = 0;
  sim.schedule(ms(1), [&] { ++fired; });
  sim.schedule(ms(10), [&] { ++fired; });
  sim.run(ms(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), ms(1));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(ms(3), [&] {
    sim.schedule(-ms(10), [&] { EXPECT_EQ(sim.now(), ms(3)); });
  });
  sim.run();
}

// --- lazy periodic timers ----------------------------------------------------

/// One simulator driven by a fixed script, with a 10 ms periodic tick that
/// is either a lazy timer or, as the reference, the events the timer stands
/// for: a chain that re-schedules itself every period until a park or drop
/// lets the pending firing be its last. Script: the tick starts at 3 ms, is
/// parked at 47 ms (firing 53 would be its last) and unparked at 50 ms,
/// parked at 61 ms (last firing 63), restarted at 80 ms and dropped at
/// 125 ms (last firing 130). Beside it runs a chain of other events, each
/// scheduled less than a period ahead; three land exactly on a firing.
struct TickScript {
  static constexpr Time kPeriod = ms(10);
  static constexpr std::array<int, 19> kOthersMs{
      1, 8, 15, 23, 30, 37, 44, 51, 58, 63, 70, 77, 84, 91, 98, 105, 110, 117,
      124};

  explicit TickScript(bool lazy) : lazy(lazy) {
    sim.schedule_at(ms(3), [this] { start(); });
    sim.schedule_at(ms(47), [this] { park(); });
    sim.schedule_at(ms(50), [this] { unpark(); });
    sim.schedule_at(ms(61), [this] { park(); });
    sim.schedule_at(ms(80), [this] { reset(); });
    sim.schedule_at(ms(125), [this] { drop(); });
    sim.schedule_at(ms(kOthersMs[0]), [this] { other(); });
  }

  void start() {
    if (lazy) {
      timer = sim.start_timer(kPeriod);
    } else {
      arm();
    }
  }
  void park() {
    if (lazy) {
      sim.park_timer(timer);
    } else {
      ending = true;
    }
  }
  void unpark() {
    if (lazy) {
      sim.unpark_timer(timer);
    } else {
      ending = false;
    }
  }
  void reset() {
    if (lazy) {
      sim.reset_timer(timer);
    } else {
      ending = false;
      arm();
    }
  }
  void drop() {
    if (lazy) {
      sim.drop_timer(timer);
    } else {
      ending = true;
    }
  }
  void arm() {
    sim.schedule(kPeriod, [this] {
      if (!ending) arm();
    });
  }
  void other() {
    if (++others == kOthersMs.size()) return;
    sim.schedule_at(ms(kOthersMs[others]), [this] { other(); });
  }

  bool lazy;
  Simulator sim;
  Simulator::TimerId timer = 0;
  bool ending = false;
  std::size_t others = 0;
};

TEST(Simulator, TimerLeavesTheClockWhereItsEventsWould) {
  TickScript lazy(true);
  TickScript eager(false);
  for (Time until = 0; until <= ms(200); until += ms(1) / 2) {
    lazy.sim.run(until);
    eager.sim.run(until);
    ASSERT_EQ(lazy.sim.now(), eager.sim.now()) << "until " << until;
    ASSERT_EQ(lazy.others, eager.others) << "until " << until;
  }
  EXPECT_EQ(lazy.sim.now(), ms(130));  // the dropped timer's last firing
  EXPECT_TRUE(lazy.sim.idle());
  // The timer queued nothing: every event the reference ran beyond the
  // script's is a firing.
  EXPECT_EQ(eager.sim.executed_events() - lazy.sim.executed_events(), 11u);
}

TEST(Simulator, BoundedWaitStopsWhereAStepLoopStops) {
  // The loop a bounded wait ran before timers were lazy, against
  // step_within(): both must end at the same time with the same events run,
  // whether the first thing past the deadline is a firing, an event or a
  // tie of both.
  for (Time deadline = ms(2); deadline <= ms(190); deadline += ms(1) / 4) {
    TickScript lazy(true);
    TickScript eager(false);
    while (eager.sim.now() <= deadline && eager.sim.step()) {
    }
    while (lazy.sim.step_within(deadline)) {
    }
    ASSERT_EQ(lazy.sim.now(), eager.sim.now()) << "deadline " << deadline;
    ASSERT_EQ(lazy.others, eager.others) << "deadline " << deadline;
  }
}

TEST(Simulator, DroppedTimerSlotsAreReused) {
  Simulator sim;
  const Simulator::TimerId a = sim.start_timer(ms(10));
  sim.drop_timer(a);  // its last firing is at 10 ms
  EXPECT_EQ(sim.start_timer(ms(10)), a + 1);
  sim.run(ms(10));
  EXPECT_EQ(sim.now(), ms(10));
  sim.run(ms(11));  // the dropped timer has ended: its slot is free
  EXPECT_EQ(sim.start_timer(ms(5)), a);
}

TEST(Simulator, EventLimitThrowsOnLivelock) {
  Simulator sim;
  sim.set_event_limit(100);
  std::function<void()> loop = [&] { sim.schedule(1, loop); };
  sim.schedule(1, loop);
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyRightMoments) {
  Rng rng(11);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

TEST(Stats, AccumulatorMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.001);
}

TEST(Stats, TimelineBetween) {
  Timeline t;
  t.mark("a", ms(10));
  t.mark("b", ms(35));
  EXPECT_EQ(t.between("a", "b"), ms(25));
  EXPECT_EQ(t.between("a", "missing"), 0);
  EXPECT_TRUE(t.has("a"));
  EXPECT_FALSE(t.has("c"));
}

TEST(Stats, TimelineBetweenWithMissingMarks) {
  Timeline t;
  t.mark("a", ms(10));
  // Either endpoint missing (or both) yields 0, never garbage; has()
  // distinguishes "missing" from "zero-length region".
  EXPECT_EQ(t.between("missing", "a"), 0);
  EXPECT_EQ(t.between("a", "missing"), 0);
  EXPECT_EQ(t.between("nope", "also_nope"), 0);
  EXPECT_EQ(Timeline{}.between("a", "b"), 0);
  // Re-marking overwrites; marks() exposes the full map.
  t.mark("a", ms(20));
  EXPECT_EQ(t.at("a"), ms(20));
  EXPECT_EQ(t.marks().size(), 1u);
}

TEST(Stats, AccumulatorDegenerateCounts) {
  Accumulator empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.min(), 0.0);
  EXPECT_EQ(empty.max(), 0.0);
  EXPECT_EQ(empty.variance(), 0.0);  // no samples: variance defined as 0
  EXPECT_EQ(empty.stddev(), 0.0);

  Accumulator one;
  one.add(42.0);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_DOUBLE_EQ(one.mean(), 42.0);
  EXPECT_EQ(one.variance(), 0.0);  // single sample: no spread
  EXPECT_EQ(one.stddev(), 0.0);
}

TEST(Stats, LedgerAccumulates) {
  CostLedger l;
  l.charge("x", ms(5));
  l.charge("x", ms(7));
  l.charge("y", ms(1));
  EXPECT_EQ(l.total("x"), ms(12));
  EXPECT_EQ(l.events("x"), 2u);
  EXPECT_EQ(l.total("z"), 0);
}

TEST(Log, SinkCapturesLevelPassingLinesOnly) {
  const LogLevel saved = Log::level();
  std::vector<std::string> captured;
  Log::set_level(LogLevel::Info);
  Log::set_sink([&](LogLevel, Time, std::string_view component,
                    std::string_view message) {
    captured.push_back(std::string(component) + ": " + std::string(message));
  });

  LogLine(LogLevel::Info, ms(1), "unit") << "visible";
  LogLine(LogLevel::Debug, ms(2), "unit") << "filtered";

  Log::set_sink(nullptr);  // restore the stderr formatter
  Log::set_level(saved);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "unit: visible");
}

TEST(Log, TapSeesEveryLineRegardlessOfLevel) {
  const LogLevel saved = Log::level();
  Log::set_level(LogLevel::Off);
  int lines = 0;
  Log::set_tap([&](LogLevel, Time, std::string_view, std::string_view) {
    ++lines;
  });
  EXPECT_TRUE(Log::has_tap());
  EXPECT_TRUE(Log::enabled(LogLevel::Debug));  // tap forces line formatting

  LogLine(LogLevel::Debug, ms(1), "unit") << "tapped";
  Log::set_tap(nullptr);
  Log::set_level(saved);
  EXPECT_FALSE(Log::has_tap());
  EXPECT_EQ(lines, 1);
}

TEST(Log, ParseLogLevelRecognisesTheDocumentedVocabulary) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("none"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("0"), LogLevel::Off);
  EXPECT_EQ(parse_log_level(""), LogLevel::Off);
  // Unknown values are nullopt - the env reader warns instead of silently
  // disabling the log.
  EXPECT_FALSE(parse_log_level("verbose").has_value());
  EXPECT_FALSE(parse_log_level("DEBUG2").has_value());
}

TEST(TimeFormat, HumanReadable) {
  EXPECT_EQ(format_time(seconds(1.5)), "1.500s");
  EXPECT_EQ(format_time(ms(2.25)), "2.250ms");
  EXPECT_EQ(format_time(us(750)), "750us");
}

}  // namespace
}  // namespace lmon::sim

namespace lmon {
namespace {

TEST(Status, RoundTripAndMessages) {
  Status ok;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.to_string(), "Ok");
  Status err(Rc::Esys, "fork failed");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.rc(), Rc::Esys);
  EXPECT_EQ(err.to_string(), "Esys: fork failed");
  EXPECT_EQ(to_string(Rc::Etout), "Etout");
}

TEST(Argparse, ValueAndIntAndFlag) {
  std::vector<std::string> args{"--mode=job", "--nnodes=16", "--verbose",
                                "--empty="};
  EXPECT_EQ(arg_value(args, "--mode="), "job");
  EXPECT_EQ(arg_int(args, "--nnodes="), 16);
  EXPECT_FALSE(arg_value(args, "--missing=").has_value());
  EXPECT_FALSE(arg_int(args, "--mode=").has_value());
  EXPECT_TRUE(arg_flag(args, "--verbose"));
  EXPECT_FALSE(arg_flag(args, "--quiet"));
  EXPECT_FALSE(arg_value(args, "--empty=").has_value());
}

TEST(Argparse, SplitCsv) {
  EXPECT_EQ(split_csv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv(""), (std::vector<std::string>{}));
  EXPECT_EQ(split_csv("one"), (std::vector<std::string>{"one"}));
  EXPECT_EQ(split_csv("a,,b"), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace lmon
