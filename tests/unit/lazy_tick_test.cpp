// MPI-task ticks are state computed on read (Process::start_ticks over a
// lazy simulator timer). These tests hold them to the tick events they
// replace: a test-local copy of the application whose ticks are real events
// re-posted every 50 ms (the eager oracle) runs beside apps::MpiApp in a
// second, identical cluster, and every read, stop, resume, exit and clock
// position must come out the same in both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "apps/mpi_app.hpp"
#include "cluster/machine.hpp"
#include "cluster/tracing.hpp"
#include "common/argparse.hpp"
#include "tests/test_util.hpp"

namespace lmon {
namespace {

constexpr sim::Time kPeriod = sim::ms(50);
constexpr int kTasks = 4;

const std::vector<std::string> kCheckpointStack{
    "_start", "main", "solver_loop", "write_checkpoint", "io_write"};
const std::vector<std::string> kHaloStack{
    "_start", "main", "solver_loop", "exchange_halo", "MPI_Waitall"};
const std::vector<std::string> kReduceStack{
    "_start", "main", "solver_loop", "global_reduce", "MPI_Allreduce"};
const std::vector<std::string> kStencilStack{
    "_start", "main", "solver_loop", "compute_kernel", "stencil_sweep"};
const std::vector<std::string> kBoundaryStack{
    "_start", "main", "solver_loop", "compute_kernel", "apply_bc"};

/// The oracle: MpiApp's start-up and tick body, with each tick a real event
/// that re-posts the next one, as the application ran before its ticks
/// became lazy.
class EagerMpiApp : public cluster::Program {
 public:
  [[nodiscard]] std::string_view name() const override { return "mpi_app"; }

  void on_start(cluster::Process& self) override {
    started_at = self.sim().now();
    rank_ = static_cast<int>(arg_int(self.args(), "--rank=").value_or(0));
    rng_ = sim::Rng(static_cast<std::uint64_t>(rank_) * 7919 + 13);
    auto& st = self.stats();
    st.state = 'R';
    st.num_threads = 1 + static_cast<std::uint32_t>(rng_.next_below(3));
    st.vm_hwm_kb = 150'000 + rng_.next_below(80'000);
    st.vm_rss_kb = st.vm_hwm_kb - rng_.next_below(20'000);
    st.vm_lck_kb = rng_.next_below(4096);
    rebuild_stack();
    tick(self);
  }

  [[nodiscard]] const std::vector<std::string>& call_stack() const {
    return *stack_;
  }

  sim::Time started_at = -1;

 private:
  void tick(cluster::Process& self) {
    self.post(kPeriod, [this, &self] {
      auto& st = self.stats();
      st.program_counter = 0x400000 + rng_.next_below(0x10000);
      st.utime_ms += 45 + rng_.next_below(5);
      st.stime_ms += rng_.next_below(5);
      if (rng_.next_below(10) == 0) st.maj_faults += 1;
      if (rng_.next_below(20) == 0) {
        st.vm_hwm_kb += rng_.next_below(1024);
        st.vm_rss_kb = st.vm_hwm_kb - rng_.next_below(20'000);
      }
      rebuild_stack();
      tick(self);
    });
  }

  void rebuild_stack() {
    const std::uint64_t mode = rng_.next_below(100);
    if (rank_ == 0 && mode < 30) {
      stack_ = &kCheckpointStack;
    } else if (mode < 20) {
      stack_ = &kHaloStack;
    } else if (mode < 28) {
      stack_ = &kReduceStack;
    } else {
      stack_ = mode % 2 == 0 ? &kStencilStack : &kBoundaryStack;
    }
  }

  int rank_ = -1;
  sim::Rng rng_{0};
  const std::vector<std::string>* stack_ = nullptr;
};

/// A process that only owns trace sessions.
class Idle : public cluster::Program {
 public:
  [[nodiscard]] std::string_view name() const override { return "tracer"; }
  void on_start(cluster::Process&) override {}
};

/// What a tool can see of one task at one instant.
struct Snapshot {
  sim::Time at = 0;
  int task = 0;
  cluster::ProcStats stats;
  std::vector<std::string> stack;

  bool operator==(const Snapshot& o) const {
    const cluster::ProcStats& a = stats;
    const cluster::ProcStats& b = o.stats;
    return at == o.at && task == o.task && a.state == b.state &&
           a.program_counter == b.program_counter &&
           a.num_threads == b.num_threads && a.vm_hwm_kb == b.vm_hwm_kb &&
           a.vm_rss_kb == b.vm_rss_kb && a.vm_lck_kb == b.vm_lck_kb &&
           a.utime_ms == b.utime_ms && a.stime_ms == b.stime_ms &&
           a.maj_faults == b.maj_faults && stack == o.stack;
  }
  friend std::ostream& operator<<(std::ostream& os, const Snapshot& s) {
    return os << "{t=" << s.at << " task " << s.task << " state "
              << s.stats.state << " pc " << s.stats.program_counter
              << " utime " << s.stats.utime_ms << " rss " << s.stats.vm_rss_kb
              << " top " << (s.stack.empty() ? "-" : s.stack.back()) << "}";
  }
};

/// One cluster running kTasks application tasks over two nodes, lazy or
/// eager, plus a tracer process on the front end. The two kinds see the same
/// real events in the same order, so they draw the same jitter.
struct World {
  explicit World(bool lazy, cluster::CostModel costs = {})
      : lazy(lazy), tc(2, 0, costs, 7) {
    for (int r = 0; r < kTasks; ++r) {
      cluster::SpawnOptions opts;
      opts.executable = "mpi_app";
      opts.args = {"--rank=" + std::to_string(r),
                   "--size=" + std::to_string(kTasks)};
      std::unique_ptr<cluster::Program> program;
      if (lazy) {
        program = std::make_unique<apps::MpiApp>();
      } else {
        program = std::make_unique<EagerMpiApp>();
      }
      auto res =
          tc.machine.compute_node(r % 2).spawn(std::move(program), opts);
      EXPECT_TRUE(res.is_ok());
      tasks.push_back(res.value);
    }
    auto res = tc.machine.front_end().spawn(std::make_unique<Idle>(), {});
    EXPECT_TRUE(res.is_ok());
    tracer = res.value;
  }

  sim::Simulator& sim() { return tc.simulator; }
  cluster::Process& task(int i) {
    return *tc.machine.find_process(tasks[static_cast<std::size_t>(i)]);
  }

  Snapshot read(int i) {
    cluster::Process& p = task(i);
    Snapshot s;
    s.at = sim().now();
    s.task = i;
    s.stats = p.stats();
    if (lazy) {
      s.stack = dynamic_cast<apps::MpiApp&>(p.program()).call_stack();
    } else {
      s.stack = dynamic_cast<EagerMpiApp&>(p.program()).call_stack();
    }
    return s;
  }
  void read_all() {
    for (int i = 0; i < kTasks; ++i) log.push_back(read(i));
  }

  /// Reads every task in an event at exactly `t`, scheduled 1 ms ahead as
  /// the tools' reads are (well under a period).
  void read_at(sim::Time t) {
    sim().schedule_at(t - sim::ms(1), [this] {
      sim().schedule(sim::ms(1), [this] { read_all(); });
    });
  }
  /// Stops task `i` (trace attach) at exactly `t`.
  void stop_at(int i, sim::Time t) {
    const sim::Time cost = tc.machine.costs().trace_attach_cost;
    sim().schedule_at(t - cost, [this, i] {
      auto res = tc.machine.find_process(tracer)->trace_attach(
          tasks[static_cast<std::size_t>(i)],
          [](const cluster::DebugEvent&) {});
      ASSERT_TRUE(res.is_ok());
      sessions[i] = res.value;
    });
  }
  /// Resumes task `i` (detach) at exactly `t`.
  void resume_at(int i, sim::Time t) {
    sim().schedule_at(t - sim::ms(1), [this, i] {
      sim().schedule(sim::ms(1), [this, i] { sessions[i]->detach(); });
    });
  }
  void exit_at(int i, sim::Time t) {
    sim().schedule_at(t - sim::ms(1), [this, i] {
      sim().schedule(sim::ms(1), [this, i] { task(i).exit(0); });
    });
  }

  bool lazy;
  testing::TestCluster tc;
  std::vector<cluster::Pid> tasks;
  cluster::Pid tracer = cluster::kInvalidPid;
  std::map<int, cluster::TraceSession*> sessions;
  std::vector<Snapshot> log;
};

/// The lazy world and its oracle, driven in lockstep.
struct Pair {
  explicit Pair(cluster::CostModel costs = {})
      : lazy(true, costs), eager(false, costs) {}

  /// Runs both to `until` in `step`-sized run() calls, comparing the clock
  /// and an outside read of every task after each.
  void run_to(sim::Time until, sim::Time step) {
    for (sim::Time t = horizon; t < until;) {
      t = std::min(until, t + step);
      horizon = t;
      lazy.sim().run(t);
      eager.sim().run(t);
      ASSERT_EQ(lazy.sim().now(), eager.sim().now()) << "run(" << t << ")";
      for (int i = 0; i < kTasks; ++i) {
        ASSERT_EQ(lazy.read(i), eager.read(i)) << "after run(" << t << ")";
      }
    }
  }
  /// The start time of task `i` (the origin of its ticks).
  sim::Time origin(int i) {
    return dynamic_cast<EagerMpiApp&>(eager.task(i).program()).started_at;
  }
  template <typename Fn>
  void both(Fn&& fn) {
    fn(lazy);
    fn(eager);
  }
  void expect_same_logs() {
    ASSERT_EQ(lazy.log.size(), eager.log.size());
    for (std::size_t k = 0; k < lazy.log.size(); ++k) {
      ASSERT_EQ(lazy.log[k], eager.log[k]) << "read " << k;
    }
  }

  World lazy;
  World eager;
  sim::Time horizon = 0;  ///< the last bound run_to() ran to
};

TEST(LazyTicks, ReadsMatchTickEventsMidPeriodAndOnADueTick) {
  Pair p;
  p.run_to(sim::ms(400), sim::ms(25));
  const sim::Time o = p.origin(1);
  ASSERT_GT(o, 0);
  for (int k = 9; k < 30; k += 3) {
    p.both([&](World& w) {
      w.read_at(o + k * kPeriod);               // exactly on task 1's tick
      w.read_at(o + k * kPeriod + kPeriod / 2);  // mid-period
      w.read_at(p.origin(2) + k * kPeriod);
    });
  }
  p.run_to(sim::seconds(2), sim::ms(7));
  ASSERT_FALSE(p.lazy.log.empty());
  p.expect_same_logs();
  // The state moved between reads, and the lazy side ran no tick events.
  EXPECT_NE(p.lazy.log.front().stats.utime_ms,
            p.lazy.log.back().stats.utime_ms);
  EXPECT_GT(p.eager.sim().executed_events(),
            p.lazy.sim().executed_events() + 4 * 30);
}

TEST(LazyTicks, TickDueAtTheReadTimeRunsBeforeTheRead) {
  // The tie rule, pinned: a read in an event at exactly a tick's due time,
  // scheduled less than a period before (as every tool's read is), sees
  // that tick, as it did when the tick was an event scheduled a full
  // period ahead.
  Pair p;
  p.run_to(sim::ms(300), sim::ms(50));
  const sim::Time due = p.origin(0) + 10 * kPeriod;
  p.both([&](World& w) {
    w.read_at(due - 1);
    w.read_at(due);
  });
  p.run_to(due + sim::ms(1), sim::ms(10));
  p.expect_same_logs();
  ASSERT_EQ(p.lazy.log.size(), 2u * kTasks);
  EXPECT_EQ(p.lazy.log[kTasks].at, due);
  EXPECT_GT(p.lazy.log[kTasks].stats.utime_ms, p.lazy.log[0].stats.utime_ms);
}

TEST(LazyTicks, OutsideReadsAfterRunUntilADueTickMatch) {
  // run(until) on a firing leaves the clock there, and a read after it
  // sees that tick applied.
  Pair p;
  p.run_to(sim::ms(300), sim::ms(50));
  for (int k = 6; k < 20; ++k) {
    p.run_to(p.origin(3) + k * kPeriod, sim::seconds(1));
    ASSERT_EQ(p.lazy.sim().now(), p.origin(3) + k * kPeriod);
  }
}

TEST(LazyTicks, StopHoldsTheDueTickUntilResumeAndRestartsThePhase) {
  Pair p;
  p.run_to(sim::ms(300), sim::ms(50));
  const sim::Time o0 = p.origin(0);
  const sim::Time o1 = p.origin(1);
  const sim::Time o2 = p.origin(2);
  p.both([&](World& w) {
    // Task 0: stopped for four periods, mid-period; read while stopped.
    w.stop_at(0, o0 + 8 * kPeriod + sim::ms(10));
    w.read_at(o0 + 9 * kPeriod);
    w.read_at(o0 + 10 * kPeriod + sim::ms(20));
    const sim::Time resume = o0 + 12 * kPeriod + sim::ms(30);
    w.resume_at(0, resume);
    w.read_at(resume);
    w.read_at(resume + kPeriod);  // on the restarted phase
    w.read_at(resume + 2 * kPeriod + sim::ms(1));
    w.read_at(o0 + 14 * kPeriod);  // where the old phase would have ticked
    // Task 1: stopped exactly on a due tick, resumed exactly on the held
    // one.
    w.stop_at(1, o1 + 9 * kPeriod);
    w.read_at(o1 + 9 * kPeriod + sim::ms(5));
    w.resume_at(1, o1 + 10 * kPeriod);
    w.read_at(o1 + 10 * kPeriod + sim::ms(5));
    w.read_at(o1 + 11 * kPeriod);
    // Task 2: a stop shorter than one period, between two ticks: the phase
    // is kept.
    w.stop_at(2, o2 + 8 * kPeriod + sim::ms(10));
    w.read_at(o2 + 8 * kPeriod + sim::ms(20));
    w.resume_at(2, o2 + 8 * kPeriod + sim::ms(40));
    w.read_at(o2 + 9 * kPeriod);
    w.read_at(o2 + 10 * kPeriod + sim::ms(25));
    // Task 3: resumed exactly on a firing of its old phase, long after
    // its held tick came due.
    const sim::Time o3 = p.origin(3);
    w.stop_at(3, o3 + 8 * kPeriod + sim::ms(12));
    w.resume_at(3, o3 + 11 * kPeriod);
    w.read_at(o3 + 12 * kPeriod);
  });
  p.run_to(sim::seconds(2), sim::ms(9));
  ASSERT_EQ(p.lazy.task(0).state(), cluster::ProcState::Running);
  ASSERT_EQ(p.lazy.task(1).state(), cluster::ProcState::Running);
  ASSERT_GT(p.lazy.log.size(), 0u);
  p.expect_same_logs();
  // While stopped the state froze.
  EXPECT_EQ(p.lazy.log[0].stats.utime_ms, p.lazy.log[4].stats.utime_ms);
}

TEST(LazyTicks, TicksEndAtExitAndTheClockCountsThePendingOne) {
  Pair p;
  p.run_to(sim::ms(300), sim::ms(50));
  const sim::Time o0 = p.origin(0);
  const sim::Time o1 = p.origin(1);
  const sim::Time o2 = p.origin(2);
  p.both([&](World& w) {
    w.exit_at(0, o0 + 8 * kPeriod + sim::ms(20));  // between ticks
    w.exit_at(1, o1 + 9 * kPeriod);                // on a due tick
    // Stopped with its tick held, then exits: the held tick never runs.
    w.stop_at(2, o2 + 8 * kPeriod + sim::ms(10));
    w.exit_at(2, o2 + 10 * kPeriod + sim::ms(10));
    w.read_at(o2 + 11 * kPeriod);
  });
  p.run_to(sim::seconds(1), sim::ms(11));
  p.expect_same_logs();
  ASSERT_EQ(p.lazy.task(2).state(), cluster::ProcState::Exited);
  // Kill the last task; once nothing else is queued, an unbounded run
  // leaves the clock on the firing that was pending at its exit.
  p.both([](World& w) {
    w.task(3).exit(0);
    w.sim().run();
  });
  EXPECT_EQ(p.lazy.sim().now(), p.eager.sim().now());
  EXPECT_TRUE(p.lazy.sim().idle());
  EXPECT_TRUE(p.eager.sim().idle());
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(p.lazy.read(i), p.eager.read(i));
}

TEST(LazyTicks, TimedOutWaitStopsWhereTheEagerLoopStopped) {
  // A bounded wait that gives up ends at the first firing or event past
  // its deadline. Sweep the deadline across several periods of four tasks'
  // firings and a few real events.
  Pair p;
  p.run_to(sim::ms(300), sim::ms(50));
  p.both([&](World& w) {
    for (int k = 0; k < 12; ++k) w.read_at(sim::ms(330) + k * sim::ms(17));
  });
  for (sim::Time timeout = sim::ms(1); timeout < sim::ms(60);
       timeout += sim::ms(1) + sim::us(337)) {
    EXPECT_FALSE(p.lazy.tc.run_until([] { return false; }, timeout));
    EXPECT_FALSE(p.eager.tc.run_until([] { return false; }, timeout));
    ASSERT_EQ(p.lazy.sim().now(), p.eager.sim().now()) << "timeout " << timeout;
  }
  p.expect_same_logs();
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(p.lazy.read(i), p.eager.read(i));
}

TEST(LazyTicks, JitterFreeCostsMatchToo) {
  // Without jitter, start times and event times are round, and reads and
  // stops tie with firings often.
  Pair p(cluster::CostModel{}.deterministic());
  p.run_to(sim::ms(300), sim::ms(50));
  p.both([&](World& w) {
    for (int k = 0; k < 40; ++k) w.read_at(sim::ms(310) + k * sim::ms(5));
    w.stop_at(0, sim::ms(400));
    w.resume_at(0, sim::ms(550));
  });
  p.run_to(sim::seconds(1), sim::ms(5));
  p.expect_same_logs();
}

}  // namespace
}  // namespace lmon
