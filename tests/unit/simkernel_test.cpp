// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
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
// pops, and pushes made from inside callbacks into just-freed slots. Half of
// the pushes go into two fixed-delay lanes at now + delay, where `now` is the
// timestamp of the last pop (the clock a Simulator would hold), so lane and
// heap records often share a timestamp. At every step size() and
// next_time() must match a reference holding every record in one multimap
// ordered by (when, push index), and every pop must take its first record.
TEST(EventQueue, MatchesReferenceOrderUnderSlotReuse) {
  constexpr std::array<Time, 2> kLaneDelays{2, 5};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventQueue q;
    // (when, push index) -> pushed into a lane
    std::multimap<std::pair<Time, int>, bool> reference;
    Time now = 0;
    int pushes = 0;
    int lane_pushes = 0;
    int last_fired = -1;
    int cross_ties = 0;  // pops tied on time with a record of the other kind
    std::size_t peak = 0;

    std::function<void()> push = [&] {
      const int index = pushes++;
      const std::uint64_t kind = rng.next_below(4);
      const bool lane = kind < kLaneDelays.size();
      const Time when =
          lane ? now + kLaneDelays[kind]
               : now + static_cast<Time>(rng.next_below(8));
      reference.emplace(std::make_pair(when, index), lane);
      const bool nested = rng.next_below(3) == 0;
      // The popped slot is free again: refill it from inside the callback.
      Task fn = [&, index, nested] {
        last_fired = index;
        if (nested) push();
      };
      if (lane) {
        q.push_fixed(kLaneDelays[kind], when, std::move(fn));
        ++lane_pushes;
      } else {
        q.push(when, std::move(fn));
      }
      peak = std::max(peak, q.size());
    };
    auto pop_one = [&](int step) {
      const auto expected = reference.begin();
      const Time want_when = expected->first.first;
      const int want = expected->first.second;
      const auto next = std::next(expected);
      if (next != reference.end() &&
          next->first.first == expected->first.first &&
          next->second != expected->second) {
        ++cross_ties;
      }
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
        ASSERT_EQ(q.next_time(), reference.begin()->first.first)
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
      ASSERT_EQ(q.next_time(), reference.begin()->first.first);
      pop_one(-1);
    }
    EXPECT_TRUE(reference.empty());
    // The slab never holds more than `peak` tasks, so most pushes went into
    // recycled slots.
    EXPECT_GT(pushes, 2 * static_cast<int>(peak)) << "seed " << seed;
    // Both sources were exercised, and they tied on timestamps.
    EXPECT_GT(lane_pushes, pushes / 4) << "seed " << seed;
    EXPECT_GT(pushes - lane_pushes, pushes / 4) << "seed " << seed;
    EXPECT_GT(cross_ties, 0) << "seed " << seed;
  }
}

// A lane's ring grows while its head is mid-buffer and later wraps; the
// records must still come out in push order.
TEST(EventQueue, FixedDelayLaneKeepsPushOrderAcrossGrowth) {
  EventQueue q;
  std::vector<int> fired;
  int next = 0;
  auto push = [&](Time when) {
    q.push_fixed(7, when, [&fired, i = next++] { fired.push_back(i); });
  };
  for (int i = 0; i < 10; ++i) push(i);
  for (int i = 0; i < 8; ++i) q.pop().fn();
  for (int i = 10; i < 60; ++i) push(i);
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(fired.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
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

TEST(Simulator, FixedDelayEventsRunWhenScheduleWouldRunThem) {
  // Two runs of one schedule: ticks via schedule_fixed, then via schedule.
  // Other events tie with the ticks on time; the firing order and times
  // must be the same either way, and pending_events() counts the lane.
  auto trace = [](bool lanes) {
    Simulator sim;
    std::vector<std::pair<Time, int>> fired;
    std::size_t max_pending = 0;
    std::function<void(int)> tick = [&](int n) {
      fired.emplace_back(sim.now(), 100 + n);
      max_pending = std::max(max_pending, sim.pending_events());
      if (n == 5) return;
      auto again = [&tick, n] { tick(n + 1); };
      if (lanes) {
        sim.schedule_fixed(ms(10), again);
      } else {
        sim.schedule(ms(10), again);
      }
    };
    sim.schedule(0, [&] { tick(0); });
    for (int i = 0; i < 6; ++i) {
      sim.schedule(ms(10) * i, [&, i] { fired.emplace_back(sim.now(), i); });
      sim.schedule(ms(10) * i + ms(10),
                   [&, i] { fired.emplace_back(sim.now(), 10 + i); });
    }
    while (sim.step()) {
    }
    return std::make_pair(fired, max_pending);
  };
  const auto with_lanes = trace(true);
  const auto on_heap = trace(false);
  EXPECT_EQ(with_lanes.first, on_heap.first);
  EXPECT_EQ(with_lanes.second, on_heap.second);
  EXPECT_EQ(with_lanes.first.size(), 18u);
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
