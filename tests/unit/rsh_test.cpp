// Behavioural tests for the rsh substrate and the ad hoc launchers.
#include <gtest/gtest.h>

#include <memory>

#include "comm/bootstrap.hpp"
#include "rsh/client.hpp"
#include "rsh/launchers.hpp"
#include "tests/test_util.hpp"

namespace lmon::rsh {
namespace {

using lmon::testing::TestCluster;

/// The flat layout: type, executable, entry count, then every entry as a
/// u32 length and its bytes.
std::size_t flat_exec_req_size(const ExecReq& req) {
  std::size_t size = 4 + 4 + req.executable.size() + 4;
  for (const Arg& a : req.args) size += 4 + a.size();
  return size;
}

TEST(RshProtocol, BootstrapExecReqKeepsTheFlatLengthAndSharesTheHostEntry) {
  comm::BootstrapSpec spec;
  spec.size = 512;
  spec.port = 9100;
  spec.session = "s1p1000";
  spec.fe_host = "atlas-fe";
  spec.fe_port = 7050;
  for (int i = 1; i <= 512; ++i) {
    spec.hosts.push_back("atlas" + std::to_string(i));
  }
  const Arg hosts = comm::hosts_arg(join_csv(spec.hosts));

  ExecReq req;
  req.executable = "hello_be";
  req.args = comm::bootstrap_args(spec, 7u, hosts);
  req.args.push_back("--tool-flag");
  const cluster::Message m = req.encode();
  EXPECT_EQ(m.size(), flat_exec_req_size(req));
  // 20 B of header, 169 B of short entries, 4 + 13 + 4,499 B of host list.
  EXPECT_EQ(m.size(), 4705u);
  EXPECT_EQ(m.view.data(), hosts.slice()->data());

  const auto back = ExecReq::decode(m);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->executable, "hello_be");
  ASSERT_EQ(back->args.size(), req.args.size());
  for (std::size_t i = 0; i < req.args.size(); ++i) {
    EXPECT_EQ(back->args[i], req.args[i].view()) << i;
  }
  ASSERT_NE(back->args[7].slice(), nullptr);
  EXPECT_EQ(back->args[7].slice()->data(), hosts.slice()->data());
}

TEST(RshProtocol, TreeAgentExecReqKeepsTheFlatLength) {
  // An agent's argv: owned entries around the keyed host entry, which is
  // the one the frame's view carries.
  const Arg hosts = comm::hosts_arg("n0,n1,n2");
  ExecReq req;
  req.executable = "rsh_tree_agent";
  req.args = {"--exe=hello_be", "--hosts=n1,n2",
              with_key("--daemon-arg=", "--lmon-size=3"),
              with_key("--daemon-arg=", hosts)};
  const cluster::Message m = req.encode();
  EXPECT_EQ(m.size(), flat_exec_req_size(req));
  EXPECT_EQ(m.view.size(),
            std::string_view("--daemon-arg=--lmon-hosts=n0,n1,n2").size());
  const auto back = ExecReq::decode(m);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->args.size(), 4u);
  EXPECT_EQ(back->args[1], "--hosts=n1,n2");
  EXPECT_EQ(back->args[3], "--daemon-arg=--lmon-hosts=n0,n1,n2");
  EXPECT_EQ(back->args[3].suffix(13).slice()->data(), m.view.data() + 13);

  // With no shared entry the whole frame is header, byte for byte flat.
  ExecReq owned;
  owned.executable = "sleeperd";
  owned.args = {"--a=1", "--lmon-hosts=n0,n1,n2"};
  const cluster::Message flat = owned.encode();
  EXPECT_TRUE(flat.view.empty());
  EXPECT_EQ(flat.size(), flat_exec_req_size(owned));
  const auto owned_back = ExecReq::decode(flat);
  ASSERT_TRUE(owned_back.has_value());
  EXPECT_EQ(owned_back->args[1], "--lmon-hosts=n0,n1,n2");
  EXPECT_EQ(owned_back->args[1].slice(), nullptr);
}

TEST(Rsh, RemoteExecSpawnsCommandOnTarget) {
  TestCluster tc(2);
  RemoteExec result;
  bool done = false;
  tc.spawn_fe([&](cluster::Process& self) {
    RshSession::run(self, tc.machine.compute_node(1).hostname(), "sleeperd",
                    {}, [&](RemoteExec r) {
                      result = std::move(r);
                      done = true;
                    });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }));
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  // Let the remote command finish its exec (the ExecResp is sent at fork
  // time, like rsh returning before the command is fully up).
  tc.simulator.run(tc.simulator.now() + sim::ms(50));
  cluster::Process* remote = tc.machine.find_process(result.remote_pid);
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->node().hostname(), tc.machine.compute_node(1).hostname());
  EXPECT_EQ(remote->state(), cluster::ProcState::Running);
  // The local helper child occupies a process slot, like blocking rsh.
  cluster::Process* helper = tc.machine.find_process(result.helper_pid);
  ASSERT_NE(helper, nullptr);
  EXPECT_EQ(helper->state(), cluster::ProcState::Running);
}

TEST(Rsh, UnknownCommandReportsError) {
  TestCluster tc(1);
  RemoteExec result;
  bool done = false;
  tc.spawn_fe([&](cluster::Process& self) {
    RshSession::run(self, tc.machine.compute_node(0).hostname(), "nonesuch",
                    {}, [&](RemoteExec r) {
                      result = std::move(r);
                      done = true;
                    });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }));
  EXPECT_FALSE(result.status.is_ok());
  EXPECT_EQ(result.status.rc(), Rc::Esubcom);
}

TEST(Rsh, ClosingSessionKillsRemoteCommand) {
  TestCluster tc(1);
  RemoteExec result;
  bool done = false;
  tc.spawn_fe([&](cluster::Process& self) {
    RshSession::run(self, tc.machine.compute_node(0).hostname(), "sleeperd",
                    {}, [&, ptr = &self](RemoteExec r) {
                      result = std::move(r);
                      done = true;
                      ptr->post(sim::ms(10), [&, ptr] {
                        ptr->close_channel(result.session);
                      });
                    });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }));
  tc.simulator.run(tc.simulator.now() + sim::seconds(1));
  cluster::Process* remote = tc.machine.find_process(result.remote_pid);
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->state(), cluster::ProcState::Exited);
}

TEST(Rsh, SerialLauncherPreservesTargetOrder) {
  TestCluster tc(4);
  LaunchOutcome outcome;
  bool done = false;
  std::vector<rsh::LaunchTarget> targets;
  for (int i = 0; i < 4; ++i) {
    targets.push_back(LaunchTarget{tc.machine.compute_node(i).hostname(),
                                   "sleeperd",
                                   {}});
  }
  tc.spawn_fe([&](cluster::Process& self) {
    SerialRshLauncher::launch(self, targets, [&](LaunchOutcome out) {
      outcome = std::move(out);
      done = true;
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }));
  ASSERT_TRUE(outcome.status.is_ok());
  ASSERT_EQ(outcome.daemons.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(outcome.daemons[static_cast<std::size_t>(i)].first,
              tc.machine.compute_node(i).hostname());
  }
  EXPECT_EQ(outcome.sessions.size(), 4u);
}

TEST(Rsh, SerialLauncherAbortsAtForkLimit) {
  cluster::CostModel costs;
  costs.rsh_fork_limit = 3;
  TestCluster tc(8, 0, costs);
  LaunchOutcome outcome;
  bool done = false;
  std::vector<rsh::LaunchTarget> targets;
  for (int i = 0; i < 8; ++i) {
    targets.push_back(LaunchTarget{tc.machine.compute_node(i).hostname(),
                                   "sleeperd",
                                   {}});
  }
  tc.spawn_fe([&](cluster::Process& self) {
    SerialRshLauncher::launch(self, targets, [&](LaunchOutcome out) {
      outcome = std::move(out);
      done = true;
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }));
  EXPECT_EQ(outcome.status.rc(), Rc::Esys);
  // The daemons started before the failure are leaked (paper: the ugly
  // failure mode of ad hoc launching).
  EXPECT_EQ(outcome.daemons.size(), 3u);
}

/// FE program that forwards tree-agent reports (required by the tree
/// launcher contract).
class TreeFe : public cluster::Program {
 public:
  using Go = std::function<void(cluster::Process&)>;
  explicit TreeFe(Go go) : go_(std::move(go)) {}
  [[nodiscard]] std::string_view name() const override { return "tree_fe"; }
  void on_start(cluster::Process& self) override { go_(self); }
  void on_message(cluster::Process& self, const cluster::ChannelPtr& ch,
                  cluster::Message msg) override {
    (void)TreeRshLauncher::handle_report(self, ch, msg);
  }

 private:
  Go go_;
};

class TreeLauncherTest : public ::testing::TestWithParam<int> {};

TEST_P(TreeLauncherTest, LaunchesEveryHostExactlyOnce) {
  const int fanout = GetParam();
  const int n = 13;
  TestCluster tc(n);
  LaunchOutcome outcome;
  bool done = false;
  std::vector<std::string> hosts;
  for (int i = 0; i < n; ++i) {
    hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  cluster::SpawnOptions opts;
  opts.executable = "tree_fe";
  auto res = tc.machine.front_end().spawn(
      std::make_unique<TreeFe>([&](cluster::Process& self) {
        TreeRshLauncher::launch(self, hosts, "sleeperd", {}, fanout,
                                [&](LaunchOutcome out) {
                                  outcome = std::move(out);
                                  done = true;
                                });
      }),
      std::move(opts));
  ASSERT_TRUE(res.is_ok());
  ASSERT_TRUE(tc.run_until([&] { return done; }, sim::seconds(600)));
  ASSERT_TRUE(outcome.status.is_ok()) << outcome.status.to_string();

  std::set<std::string> launched;
  for (const auto& [host, pid] : outcome.daemons) {
    EXPECT_TRUE(launched.insert(host).second) << host << " launched twice";
    cluster::Process* p = tc.machine.find_process(pid);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->options().executable, "sleeperd");
  }
  EXPECT_EQ(launched.size(), static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Fanouts, TreeLauncherTest,
                         ::testing::Values(1, 2, 3, 8, 16));

}  // namespace
}  // namespace lmon::rsh
