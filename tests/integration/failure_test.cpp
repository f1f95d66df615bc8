// Failure-injection tests: the robustness properties a production launch
// infrastructure needs (paper abstract: "scalable, robust, portable,
// secure").
#include <gtest/gtest.h>

#include <memory>

#include "core/fe_api.hpp"
#include "rm/resource_manager.hpp"
#include "tests/flight_check.hpp"
#include "tests/test_util.hpp"

namespace lmon {
namespace {

using testing::TestCluster;

struct Driver {
  std::shared_ptr<core::FrontEnd> fe;
  int sid = -1;
  bool done = false;
  Status status;
};

void launch(TestCluster& tc, Driver& d, const std::string& daemon_exe,
            int nnodes) {
  tc.spawn_fe([&, daemon_exe, nnodes](cluster::Process& self) {
    d.fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(d.fe->init().is_ok());
    auto sid = d.fe->create_session();
    d.sid = sid.value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = daemon_exe;
    rm::JobSpec job{nnodes, 2, "mpi_app", {}};
    d.fe->launch_and_spawn(d.sid, job, cfg, [&](Status st) {
      d.status = st;
      d.done = true;
    });
  });
}

TEST(Failure, MissingDaemonExecutableReportsCleanly) {
  TestCluster tc(4);
  testing::TraceTailOnFailure tail(tc.machine);
  Driver d;
  launch(tc, d, "no_such_daemon", 4);
  ASSERT_TRUE(tc.run_until([&] { return d.done; }));
  EXPECT_FALSE(d.status.is_ok());
  EXPECT_EQ(d.fe->state(d.sid), core::FrontEnd::SessionState::Failed);
}

TEST(Failure, MissingAppExecutableReportsCleanly) {
  TestCluster tc(4);
  testing::TraceTailOnFailure tail(tc.machine);
  Driver d;
  tc.spawn_fe([&](cluster::Process& self) {
    d.fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(d.fe->init().is_ok());
    auto sid = d.fe->create_session();
    d.sid = sid.value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{4, 2, "no_such_app", {}};
    d.fe->launch_and_spawn(d.sid, job, cfg, [&](Status st) {
      d.status = st;
      d.done = true;
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return d.done; }));
  EXPECT_FALSE(d.status.is_ok());
}

TEST(Failure, AttachToNonexistentLauncherFails) {
  TestCluster tc(2);
  testing::TraceTailOnFailure tail(tc.machine);
  Driver d;
  tc.spawn_fe([&](cluster::Process& self) {
    d.fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(d.fe->init().is_ok());
    auto sid = d.fe->create_session();
    d.sid = sid.value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    d.fe->attach_and_spawn(d.sid, 987654, cfg, [&](Status st) {
      d.status = st;
      d.done = true;
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return d.done; }));
  EXPECT_FALSE(d.status.is_ok());
}

TEST(Failure, KillTearsDownJobAndDaemons) {
  TestCluster tc(4);
  testing::TraceTailOnFailure tail(tc.machine);
  Driver d;
  launch(tc, d, "hello_be", 4);
  ASSERT_TRUE(tc.run_until([&] { return d.done; }));
  ASSERT_TRUE(d.status.is_ok()) << d.status.to_string();

  bool killed = false;
  Status kill_status;
  const core::Rpdtab proctable = *d.fe->proctable(d.sid);
  d.fe->kill(d.sid, [&](Status st) {
    kill_status = st;
    killed = true;
  });
  ASSERT_TRUE(tc.run_until([&] { return killed; }));
  EXPECT_TRUE(kill_status.is_ok());
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));

  // Tasks and daemons are gone.
  for (const auto& e : proctable.entries()) {
    cluster::Process* p = tc.machine.find_process(e.pid);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->state(), cluster::ProcState::Exited);
  }
  int live_daemons = 0;
  for (int i = 0; i < tc.machine.num_compute_nodes(); ++i) {
    for (cluster::Process* p : tc.machine.compute_node(i).live_processes()) {
      if (p->options().executable == "hello_be") ++live_daemons;
    }
  }
  EXPECT_EQ(live_daemons, 0);
}

TEST(Failure, FeDeathCleansUpEntireSession) {
  TestCluster tc(4);
  testing::TraceTailOnFailure tail(tc.machine);
  Driver d;
  cluster::Pid fe_pid = cluster::kInvalidPid;
  tc.spawn_fe([&](cluster::Process& self) {
    fe_pid = self.pid();
    d.fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(d.fe->init().is_ok());
    auto sid = d.fe->create_session();
    d.sid = sid.value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{4, 2, "mpi_app", {}};
    d.fe->launch_and_spawn(d.sid, job, cfg, [&](Status st) {
      d.status = st;
      d.done = true;
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return d.done; }));
  ASSERT_TRUE(d.status.is_ok());

  // The tool front end dies (crash / ctrl-c). Engine notices the LMONP
  // channel close and reaps the daemons.
  tc.machine.find_process(fe_pid)->exit(137);
  tc.simulator.run(tc.simulator.now() + sim::seconds(5));

  int live_daemons = 0;
  int live_engines = 0;
  for (int i = 0; i < tc.machine.num_nodes(); ++i) {
    for (cluster::Process* p : tc.machine.node(i).live_processes()) {
      if (p->options().executable == "hello_be") ++live_daemons;
      if (p->options().executable == "lmon_engine") ++live_engines;
    }
  }
  EXPECT_EQ(live_daemons, 0);
  EXPECT_EQ(live_engines, 0);
}

TEST(Failure, AllocationExhaustionAcrossSessions) {
  TestCluster tc(4);
  testing::TraceTailOnFailure tail(tc.machine);
  // First job takes all nodes.
  auto first = rm::run_job(tc.machine, rm::JobSpec{4, 1, "mpi_app", {}});
  ASSERT_TRUE(first.is_ok());
  tc.simulator.run(tc.simulator.now() + sim::seconds(3));

  Driver d;
  launch(tc, d, "hello_be", 2);  // wants 2 more nodes; none free
  ASSERT_TRUE(tc.run_until([&] { return d.done; }));
  EXPECT_FALSE(d.status.is_ok());
}

TEST(Failure, DeadNodeDaemonFailsSubtreeNotWholeRm) {
  TestCluster tc(8);
  testing::TraceTailOnFailure tail(tc.machine);
  // Kill the slurmd on one node before launching.
  for (cluster::Process* p : tc.machine.compute_node(5).live_processes()) {
    if (p->options().executable == "slurmd") p->exit(1);
  }
  tc.simulator.run(tc.simulator.now() + sim::ms(10));

  Driver d;
  launch(tc, d, "hello_be", 8);
  ASSERT_TRUE(tc.run_until([&] { return d.done; }, sim::seconds(300)));
  // The launch fails (a subtree could not be reached) but the FE gets a
  // clean error instead of hanging forever.
  EXPECT_FALSE(d.status.is_ok());
}

TEST(Failure, DetachAfterFailureIsSafe) {
  TestCluster tc(2);
  testing::TraceTailOnFailure tail(tc.machine);
  Driver d;
  launch(tc, d, "no_such_daemon", 2);
  ASSERT_TRUE(tc.run_until([&] { return d.done; }));
  ASSERT_FALSE(d.status.is_ok());
  bool detached = false;
  d.fe->detach(d.sid, [&](Status) { detached = true; });
  EXPECT_TRUE(tc.run_until([&] { return detached; }));
}

}  // namespace
}  // namespace lmon
