// Integration tests for the pluggable launch strategies: the same
// launchAndSpawn call must produce a working daemon session whether the
// daemons were bootstrapped through the RM's bulk launch (paper §4), a
// serial front-end rsh loop, or the recursive tree-rsh protocol (§2) - and
// over any fabric topology. The daemons themselves cannot tell the
// difference: every strategy feeds them the same comm/bootstrap argv.
#include <gtest/gtest.h>

#include <memory>

#include "core/fe_api.hpp"
#include "tests/flight_check.hpp"
#include "tests/test_util.hpp"

namespace lmon {
namespace {

using testing::TestCluster;

struct Param {
  comm::LaunchStrategyKind strategy;
  comm::TopologySpec topology;
  int nodes;
};

class LaunchStrategyTest : public ::testing::TestWithParam<Param> {};

TEST_P(LaunchStrategyTest, SessionComesUpAndTearsDown) {
  const auto [strategy, topology, nodes] = GetParam();
  TestCluster tc(nodes);
  testing::TraceTailOnFailure tail(tc.machine);

  bool done = false;
  Status status;
  int sid = -1;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    auto s = fe->create_session();
    sid = s.value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    cfg.launch_strategy = strategy;
    cfg.topology = topology;
    rm::JobSpec job{nodes, 2, "mpi_app", {}};
    fe->launch_and_spawn(sid, job, cfg, [&](Status st) {
      status = st;
      done = true;
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }, sim::seconds(600)));
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(fe->state(sid), core::FrontEnd::SessionState::Ready);

  // Every strategy must deliver the full daemon table, rank-ordered, with
  // each daemon at its host's place in the bootstrap host list (the job's
  // nodes in order) and running on that host.
  const core::Rpdtab* daemons = fe->daemon_table(sid);
  ASSERT_NE(daemons, nullptr);
  ASSERT_EQ(daemons->entries().size(), static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    const rm::TaskDesc& d = daemons->entries()[static_cast<std::size_t>(i)];
    EXPECT_EQ(d.rank, i);
    EXPECT_EQ(d.host, tc.machine.compute_node(i).hostname()) << "rank " << i;
    cluster::Process* p = tc.machine.find_process(d.pid);
    ASSERT_NE(p, nullptr) << "rank " << i;
    EXPECT_EQ(p->node().hostname(), d.host) << "rank " << i;
  }

  // And one daemon actually runs on every compute node.
  int live_daemons = 0;
  for (int i = 0; i < tc.machine.num_compute_nodes(); ++i) {
    for (cluster::Process* p : tc.machine.compute_node(i).live_processes()) {
      if (p->options().executable == "hello_be") ++live_daemons;
    }
  }
  EXPECT_EQ(live_daemons, nodes);

  // Teardown reaps the daemons regardless of how they were launched.
  bool killed = false;
  fe->kill(sid, [&](Status) { killed = true; });
  ASSERT_TRUE(tc.run_until([&] { return killed; }));
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));
  live_daemons = 0;
  for (int i = 0; i < tc.machine.num_compute_nodes(); ++i) {
    for (cluster::Process* p : tc.machine.compute_node(i).live_processes()) {
      if (p->options().executable == "hello_be") ++live_daemons;
    }
  }
  EXPECT_EQ(live_daemons, 0);
}

constexpr auto kRm = comm::LaunchStrategyKind::RmBulk;
constexpr auto kSerial = comm::LaunchStrategyKind::SerialRsh;
constexpr auto kTree = comm::LaunchStrategyKind::TreeRsh;
constexpr auto kKAry = comm::TopologyKind::KAry;
constexpr auto kBinomial = comm::TopologyKind::Binomial;
constexpr auto kFlat = comm::TopologyKind::Flat;

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndTopologies, LaunchStrategyTest,
    ::testing::Values(Param{kRm, {kKAry, 2}, 8}, Param{kRm, {kBinomial, 0}, 8},
                      Param{kSerial, {kKAry, 2}, 8},
                      Param{kSerial, {kBinomial, 0}, 6},
                      Param{kSerial, {kFlat, 0}, 4},
                      Param{kTree, {kKAry, 2}, 8},
                      Param{kTree, {kBinomial, 0}, 7},
                      Param{kTree, {kKAry, 4}, 16},
                      Param{kSerial, {kKAry, 2}, 1},
                      Param{kTree, {kKAry, 2}, 1}),
    [](const ::testing::TestParamInfo<Param>& pinfo) {
      std::string name =
          std::string(comm::to_string(pinfo.param.strategy)) + "_" +
          pinfo.param.topology.to_string() + "_n" +
          std::to_string(pinfo.param.nodes);
      for (char& c : name) {
        if (c == ':' || c == '-') c = '_';
      }
      return name;
    });

// --- fault injection ---------------------------------------------------------
//
// Deterministic fault harness for the tree-rsh bootstrap: kill the
// mid-tree launch agent and assert the ack-channel keepalive cascade
// reaps its whole subtree - no leaked daemons - over every fabric
// topology. With 8 nodes and launch fan-out 2 the agent tree is
//
//   FE ── agent@0 ── agent@1 ── agent@2      (subtree of the victim:
//    │        └───── agent@3                  hosts 1 and 2)
//    └── agent@4 ── agent@5 ── agent@6
//             └───── agent@7
//
// so killing agent@1 must take down exactly the daemons on hosts 1-2 while
// hosts 0 and 3-7 stay up.

constexpr int kFaultNodes = 8;
constexpr int kVictimHost = 1;
const int kVictimSubtree[] = {1, 2};
const int kSurvivors[] = {0, 3, 4, 5, 6, 7};

int count_on_node(TestCluster& tc, int node, std::string_view exe) {
  int count = 0;
  for (cluster::Process* p : tc.machine.compute_node(node).live_processes()) {
    if (p->options().executable == exe) ++count;
  }
  return count;
}

cluster::Process* find_on_node(TestCluster& tc, int node,
                               std::string_view exe) {
  for (cluster::Process* p : tc.machine.compute_node(node).live_processes()) {
    if (p->options().executable == exe) return p;
  }
  return nullptr;
}

int count_everywhere(TestCluster& tc, std::string_view exe) {
  int count = 0;
  for (int i = 0; i < tc.machine.num_compute_nodes(); ++i) {
    count += count_on_node(tc, i, exe);
  }
  return count;
}

class TreeRshFaultTest : public ::testing::TestWithParam<comm::TopologySpec> {
 protected:
  /// Starts a tree-rsh launchAndSpawn over the param fabric (arity 2 keeps
  /// the launch fan-out at 2, so mid-tree agents exist for every fabric).
  void start(TestCluster& tc, std::shared_ptr<core::FrontEnd>& fe, int& sid,
             bool& done, Status& status) {
    tc.spawn_fe([&, this](cluster::Process& self) {
      fe = std::make_shared<core::FrontEnd>(self);
      ASSERT_TRUE(fe->init().is_ok());
      auto s = fe->create_session();
      sid = s.value;
      core::FrontEnd::SpawnConfig cfg;
      cfg.daemon_exe = "hello_be";
      cfg.launch_strategy = comm::LaunchStrategyKind::TreeRsh;
      cfg.topology = GetParam();
      rm::JobSpec job{kFaultNodes, 2, "mpi_app", {}};
      fe->launch_and_spawn(sid, job, cfg, [&](Status st) {
        status = st;
        done = true;
      });
    });
  }

  void expect_subtree_reaped(TestCluster& tc) {
    for (int host : kVictimSubtree) {
      EXPECT_EQ(count_on_node(tc, host, "hello_be"), 0)
          << "leaked daemon on node " << host;
      EXPECT_EQ(count_on_node(tc, host, "rsh_tree_agent"), 0)
          << "leaked agent on node " << host;
    }
  }
};

TEST_P(TreeRshFaultTest, MidTreeAgentDeathAfterReadyReapsSubtree) {
  TestCluster tc(kFaultNodes);
  testing::TraceTailOnFailure tail(tc.machine);
  std::shared_ptr<core::FrontEnd> fe;
  int sid = -1;
  bool done = false;
  Status status;
  start(tc, fe, sid, done, status);
  ASSERT_TRUE(tc.run_until([&] { return done; }, sim::seconds(600)));
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  // Kill the mid-tree agent; the keepalive cascade must reap its subtree.
  cluster::Process* victim = find_on_node(tc, kVictimHost, "rsh_tree_agent");
  ASSERT_NE(victim, nullptr);
  victim->exit(9);
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));

  expect_subtree_reaped(tc);
  for (int host : kSurvivors) {
    EXPECT_EQ(count_on_node(tc, host, "hello_be"), 1)
        << "survivor daemon missing on node " << host;
  }

  // Full teardown still reaps everything that remains.
  bool killed = false;
  fe->kill(sid, [&](Status) { killed = true; });
  ASSERT_TRUE(tc.run_until([&] { return killed; }));
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));
  EXPECT_EQ(count_everywhere(tc, "hello_be"), 0);
  EXPECT_EQ(count_everywhere(tc, "rsh_tree_agent"), 0);
}

TEST_P(TreeRshFaultTest, MidTreeAgentDeathDuringBootstrapFailsAndReaps) {
  TestCluster tc(kFaultNodes);
  testing::TraceTailOnFailure tail(tc.machine);
  std::shared_ptr<core::FrontEnd> fe;
  int sid = -1;
  bool done = false;
  Status status;
  start(tc, fe, sid, done, status);

  // Wait until the victim's child agent exists (the victim is alive and has
  // not acked yet - its ack waits on the grandchild), then kill mid-launch.
  ASSERT_TRUE(tc.run_until(
      [&] { return find_on_node(tc, 2, "rsh_tree_agent") != nullptr; },
      sim::seconds(600)));
  ASSERT_FALSE(done);
  cluster::Process* victim = find_on_node(tc, kVictimHost, "rsh_tree_agent");
  ASSERT_NE(victim, nullptr);
  victim->exit(9);

  // The launch must complete *with an error* (no hang): either the parent
  // agent detects the lost unacked session ("lost tree agent") or the
  // victim's already-wired fabric neighbours notice its daemon vanish
  // ("fabric child lost") - whichever layer reports first, the failure is
  // deterministic and attributed.
  ASSERT_TRUE(tc.run_until([&] { return done; }, sim::seconds(600)));
  EXPECT_FALSE(status.is_ok());
  const std::string why = status.to_string();
  EXPECT_TRUE(why.find("lost tree agent") != std::string::npos ||
              why.find("fabric child lost") != std::string::npos)
      << why;
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));
  expect_subtree_reaped(tc);

  // Teardown after the failed launch leaks nothing anywhere.
  bool killed = false;
  fe->kill(sid, [&](Status) { killed = true; });
  ASSERT_TRUE(tc.run_until([&] { return killed; }));
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));
  EXPECT_EQ(count_everywhere(tc, "hello_be"), 0);
  EXPECT_EQ(count_everywhere(tc, "rsh_tree_agent"), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, TreeRshFaultTest,
    ::testing::Values(comm::TopologySpec{kKAry, 2},
                      comm::TopologySpec{kBinomial, 2},
                      comm::TopologySpec{kFlat, 2}),
    [](const ::testing::TestParamInfo<comm::TopologySpec>& pinfo) {
      std::string name = pinfo.param.to_string();
      for (char& c : name) {
        if (c == ':' || c == '-') c = '_';
      }
      return name;
    });

/// Minimal front end for driving TreeRshLauncher without any fabric: the
/// daemons are plain sleepers, so a lost child session can only surface
/// through the launcher itself.
class RawTreeFe : public cluster::Program {
 public:
  using Go = std::function<void(cluster::Process&)>;
  explicit RawTreeFe(Go go) : go_(std::move(go)) {}
  [[nodiscard]] std::string_view name() const override { return "raw_tree_fe"; }
  void on_start(cluster::Process& self) override { go_(self); }
  void on_message(cluster::Process& self, const cluster::ChannelPtr& ch,
                  cluster::Message msg) override {
    (void)rsh::TreeRshLauncher::handle_report(self, ch, msg);
  }

 private:
  Go go_;
};

TEST(TreeRshLauncherFault, RootDeathDuringSiblingLaunchKeepsSurvivorsReapable) {
  // Regression: a root agent dying while a *sibling* root chunk's rsh exec
  // is still in flight (the ~230 ms serialized-session window) must not
  // abort the collection early - finishing immediately would drop the
  // survivor's session and ack channel, leaving its whole subtree
  // unreapable. The collector instead stops expecting the dead subtree and
  // still hands back every surviving keepalive.
  TestCluster tc(kFaultNodes);
  testing::TraceTailOnFailure tail(tc.machine);
  bool done = false;
  rsh::LaunchOutcome outcome;
  cluster::Process* fe_proc = nullptr;
  std::vector<std::string> hosts;
  for (int i = 0; i < kFaultNodes; ++i) {
    hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  cluster::SpawnOptions opts;
  opts.executable = "raw_tree_fe";
  auto res = tc.machine.front_end().spawn(
      std::make_unique<RawTreeFe>([&](cluster::Process& self) {
        fe_proc = &self;
        rsh::TreeRshLauncher::launch(self, hosts, "sleeperd", {}, 2,
                                     [&](rsh::LaunchOutcome out) {
                                       outcome = std::move(out);
                                       done = true;
                                     });
      }),
      std::move(opts));
  ASSERT_TRUE(res.is_ok());

  // Kill the root agent on host 0 the moment it exists: the sibling root
  // chunk (hosts 4-7) is still inside its serialized session setup.
  ASSERT_TRUE(tc.run_until(
      [&] { return find_on_node(tc, 0, "rsh_tree_agent") != nullptr; },
      sim::seconds(600)));
  ASSERT_FALSE(done);
  EXPECT_EQ(count_on_node(tc, 4, "rsh_tree_agent"), 0)
      << "sibling launched too early for this scenario";
  find_on_node(tc, 0, "rsh_tree_agent")->exit(9);

  // The launch completes with an error once the surviving subtree acked.
  ASSERT_TRUE(tc.run_until([&] { return done; }, sim::seconds(600)));
  EXPECT_FALSE(outcome.status.is_ok());
  EXPECT_NE(outcome.status.to_string().find("lost tree agent"),
            std::string::npos)
      << outcome.status.to_string();
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));

  // Hosts 0-3 (the dead subtree) reaped themselves; hosts 4-7 are up and,
  // crucially, their keepalives were collected.
  for (int host : {0, 1, 2, 3}) {
    EXPECT_EQ(count_on_node(tc, host, "sleeperd"), 0) << host;
    EXPECT_EQ(count_on_node(tc, host, "rsh_tree_agent"), 0) << host;
  }
  for (int host : {4, 5, 6, 7}) {
    EXPECT_EQ(count_on_node(tc, host, "sleeperd"), 1) << host;
  }
  ASSERT_EQ(outcome.ack_channels.size(), 1u);

  // Dropping the collected keepalives reaps the survivors - nothing leaks.
  for (auto& ch : outcome.ack_channels) {
    if (ch != nullptr && ch->is_open()) fe_proc->close_channel(ch);
  }
  for (auto& ch : outcome.sessions) {
    if (ch != nullptr && ch->is_open()) fe_proc->close_channel(ch);
  }
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));
  EXPECT_EQ(count_everywhere(tc, "sleeperd"), 0);
  EXPECT_EQ(count_everywhere(tc, "rsh_tree_agent"), 0);
}

TEST(TreeRshLauncherFault, LostUnackedChildSessionFailsLaunch) {
  TestCluster tc(kFaultNodes);
  testing::TraceTailOnFailure tail(tc.machine);
  bool done = false;
  rsh::LaunchOutcome outcome;
  std::vector<std::string> hosts;
  for (int i = 0; i < kFaultNodes; ++i) {
    hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  cluster::SpawnOptions opts;
  opts.executable = "raw_tree_fe";
  auto res = tc.machine.front_end().spawn(
      std::make_unique<RawTreeFe>([&](cluster::Process& self) {
        rsh::TreeRshLauncher::launch(self, hosts, "sleeperd", {}, 2,
                                     [&](rsh::LaunchOutcome out) {
                                       outcome = std::move(out);
                                       done = true;
                                     });
      }),
      std::move(opts));
  ASSERT_TRUE(res.is_ok());

  // Kill the mid-tree agent once its child agent exists but before it
  // acked (its ack waits on the grandchild's).
  ASSERT_TRUE(tc.run_until(
      [&] { return find_on_node(tc, 2, "rsh_tree_agent") != nullptr; },
      sim::seconds(600)));
  ASSERT_FALSE(done);
  cluster::Process* victim = find_on_node(tc, kVictimHost, "rsh_tree_agent");
  ASSERT_NE(victim, nullptr);
  victim->exit(9);

  // The launcher must detect the dead subtree (no hang, attributed error)
  // and the ack-channel/die-with-parent cascade must reap hosts 1-2.
  ASSERT_TRUE(tc.run_until([&] { return done; }, sim::seconds(600)));
  EXPECT_FALSE(outcome.status.is_ok());
  EXPECT_NE(outcome.status.to_string().find("lost tree agent"),
            std::string::npos)
      << outcome.status.to_string();
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));
  for (int host : kVictimSubtree) {
    EXPECT_EQ(count_on_node(tc, host, "sleeperd"), 0)
        << "leaked daemon on node " << host;
    EXPECT_EQ(count_on_node(tc, host, "rsh_tree_agent"), 0)
        << "leaked agent on node " << host;
  }
}

}  // namespace
}  // namespace lmon
