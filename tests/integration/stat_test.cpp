// Integration tests for STAT (paper §5.2, Fig. 6): both startup paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "obs/metrics.hpp"
#include "rm/resource_manager.hpp"
#include "tbon/comm_node.hpp"
#include "tests/test_util.hpp"
#include "tools/stat/stat_be.hpp"
#include "tools/stat/stat_fe.hpp"

namespace lmon {
namespace {

using testing::TestCluster;
using tools::stat::StartupMode;
using tools::stat::StatConfig;
using tools::stat::StatFe;
using tools::stat::StatOutcome;

struct JobHandle {
  cluster::Pid launcher;
  std::vector<std::string> hosts;
};

JobHandle start_job(TestCluster& tc, int nnodes, int tpn) {
  auto res = rm::run_job(tc.machine, rm::JobSpec{nnodes, tpn, "mpi_app", {}});
  EXPECT_TRUE(res.is_ok());
  tc.simulator.run(tc.simulator.now() + sim::seconds(3));
  JobHandle h;
  h.launcher = res.value;
  for (int i = 0; i < nnodes; ++i) {
    h.hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  return h;
}

StatOutcome run_stat(TestCluster& tc, StatConfig cfg) {
  tools::stat::StatBe::install(tc.machine);
  tbon::AdHocCommNode::install(tc.machine);
  tbon::LmonCommNode::install(tc.machine);
  StatOutcome out;
  cluster::SpawnOptions opts;
  opts.executable = "stat_fe";
  opts.image_mb = 12.0;
  auto res = tc.machine.front_end().spawn(
      std::make_unique<StatFe>(std::move(cfg), &out), std::move(opts));
  EXPECT_TRUE(res.is_ok());
  EXPECT_TRUE(tc.run_until([&] { return out.done; }, sim::seconds(600)));
  return out;
}

void check_tree(const StatOutcome& out, int expected_tasks) {
  ASSERT_TRUE(out.tree.has_value());
  EXPECT_EQ(out.tree->all_ranks().size(),
            static_cast<std::size_t>(expected_tasks));
  // The synthetic app produces a handful of behaviour classes, far fewer
  // than tasks - the whole point of the prefix-tree reduction.
  EXPECT_GE(out.classes.size(), 2u);
  EXPECT_LE(out.classes.size(), 8u);
  // Classes partition the ranks.
  std::set<std::int32_t> seen;
  std::size_t total = 0;
  for (const auto& c : out.classes) {
    total += c.ranks.size();
    seen.insert(c.ranks.begin(), c.ranks.end());
  }
  EXPECT_EQ(total, seen.size());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(expected_tasks));
  // Every class path starts at the program entry.
  for (const auto& c : out.classes) {
    ASSERT_FALSE(c.path.empty());
    EXPECT_EQ(c.path.front(), "_start");
  }
}

TEST(Stat, LaunchMonOneDeepGathersMergedTree) {
  TestCluster tc(8);
  JobHandle job = start_job(tc, 8, 8);
  StatConfig cfg;
  cfg.mode = StartupMode::LaunchMon;
  cfg.launcher_pid = job.launcher;
  StatOutcome out = run_stat(tc, cfg);
  ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
  check_tree(out, 64);
  EXPECT_GT(out.t_tree_connected, out.t_start);
  EXPECT_GT(out.t_sampled, out.t_tree_connected);
}

TEST(Stat, AdHocRshOneDeepGathersSameTree) {
  TestCluster tc(8);
  JobHandle job = start_job(tc, 8, 8);
  StatConfig cfg;
  cfg.mode = StartupMode::AdHocRsh;
  cfg.launcher_pid = job.launcher;
  cfg.adhoc_hosts = job.hosts;  // manual host list, as the paper laments
  StatOutcome out = run_stat(tc, cfg);
  ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
  check_tree(out, 64);
}

TEST(Stat, LaunchMonIsFasterThanAdHocAtModestScale) {
  const int nodes = 16;
  double lmon_secs = 0;
  double adhoc_secs = 0;
  {
    TestCluster tc(nodes);
    JobHandle job = start_job(tc, nodes, 8);
    StatConfig cfg;
    cfg.mode = StartupMode::LaunchMon;
    cfg.launcher_pid = job.launcher;
    StatOutcome out = run_stat(tc, cfg);
    ASSERT_TRUE(out.status.is_ok());
    lmon_secs = out.launch_connect_seconds();
  }
  {
    TestCluster tc(nodes);
    JobHandle job = start_job(tc, nodes, 8);
    StatConfig cfg;
    cfg.mode = StartupMode::AdHocRsh;
    cfg.launcher_pid = job.launcher;
    cfg.adhoc_hosts = job.hosts;
    StatOutcome out = run_stat(tc, cfg);
    ASSERT_TRUE(out.status.is_ok());
    adhoc_secs = out.launch_connect_seconds();
  }
  // Paper Fig. 6: LaunchMON wins even at 4 nodes (0.46 s vs 0.77 s) and the
  // gap widens linearly; at 16 nodes ad hoc should cost several times more.
  EXPECT_LT(lmon_secs, adhoc_secs);
  EXPECT_GT(adhoc_secs / lmon_secs, 2.0);
}

TEST(Stat, AdHocFailsPastTheForkLimit) {
  // The paper: "At 512 compute nodes, the ad hoc approach consistently
  // fails when forking an rsh process." Use a lowered limit to keep the
  // test fast: behaviourally identical.
  cluster::CostModel costs;
  costs.rsh_fork_limit = 24;
  TestCluster tc(32, 0, costs);
  JobHandle job = start_job(tc, 32, 2);
  StatConfig cfg;
  cfg.mode = StartupMode::AdHocRsh;
  cfg.launcher_pid = job.launcher;
  cfg.adhoc_hosts = job.hosts;
  StatOutcome out = run_stat(tc, cfg);
  EXPECT_FALSE(out.status.is_ok());
  EXPECT_EQ(out.status.rc(), Rc::Esys);
}

TEST(Stat, LaunchMonSurvivesWhereAdHocFails) {
  cluster::CostModel costs;
  costs.rsh_fork_limit = 24;
  TestCluster tc(32, 0, costs);
  JobHandle job = start_job(tc, 32, 2);
  StatConfig cfg;
  cfg.mode = StartupMode::LaunchMon;
  cfg.launcher_pid = job.launcher;
  StatOutcome out = run_stat(tc, cfg);
  ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
  check_tree(out, 64);
}

TEST(Stat, DeepTopologyViaMiddlewareApi) {
  TestCluster tc(16, /*middleware=*/4);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  JobHandle job = start_job(tc, 16, 4);
  StatConfig cfg;
  cfg.mode = StartupMode::LaunchMon;
  cfg.launcher_pid = job.launcher;
  cfg.n_comm_nodes = 4;
  cfg.tbon_fanout = 4;
  StatOutcome out = run_stat(tc, cfg);
  tc.machine.set_metrics(nullptr);
  ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
  check_tree(out, 64);
  // The tree really is 2-deep: the sample round is reduced once at every
  // comm node and once at the FE root. A topology built before the MW
  // table was known has no comm nodes, and only the root reduces.
  EXPECT_EQ(metrics.counter("tbon.rounds_reduced"), 1.0 + 4.0);
}

/// Where each TBON endpoint of the cluster's LaunchMON daemons keeps its
/// nodes: STAT back ends on the compute nodes, comm daemons on the
/// middleware nodes.
struct TopologyStorage {
  std::vector<const tbon::TopoNode*> backends;
  std::vector<const tbon::TopoNode*> comm;
};

TopologyStorage topology_storage(TestCluster& tc) {
  TopologyStorage out;
  for (int i = 0; i < tc.machine.num_compute_nodes(); ++i) {
    for (cluster::Process* p : tc.machine.compute_node(i).live_processes()) {
      auto* be = dynamic_cast<tools::stat::StatBe*>(&p->program());
      if (be != nullptr && be->tbon() != nullptr) {
        out.backends.push_back(be->tbon()->topology().nodes().data());
      }
    }
  }
  for (int i = 0; i < tc.machine.num_middleware_nodes(); ++i) {
    for (cluster::Process* p :
         tc.machine.middleware_node(i).live_processes()) {
      auto* cd = dynamic_cast<tbon::LmonCommNode*>(&p->program());
      if (cd != nullptr && cd->endpoint() != nullptr) {
        out.comm.push_back(cd->endpoint()->topology().nodes().data());
      }
    }
  }
  return out;
}

/// True when every pointer in `v` is the first one.
bool all_same(const std::vector<const tbon::TopoNode*>& v) {
  return std::all_of(v.begin(), v.end(),
                     [&](const tbon::TopoNode* p) { return p == v.front(); });
}

TEST(Stat, OneDeepBackEndsShareOneDecodedTopology) {
  // The topology rides the handshake broadcast: every back end decodes
  // that one view once between them and keeps no copy of its own.
  TestCluster tc(8);
  JobHandle job = start_job(tc, 8, 2);
  StatConfig cfg;
  cfg.mode = StartupMode::LaunchMon;
  cfg.launcher_pid = job.launcher;
  StatOutcome out = run_stat(tc, cfg);
  ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
  const TopologyStorage storage = topology_storage(tc);
  ASSERT_EQ(storage.backends.size(), 8u);
  EXPECT_TRUE(all_same(storage.backends));
}

TEST(Stat, DeepTopologyDaemonsShareOneDecodedTopologyPerLaunch) {
  // Back ends get the topology from the user broadcast, comm daemons from
  // their own launch's handshake: one decoded value per launch.
  TestCluster tc(16, /*middleware=*/4);
  JobHandle job = start_job(tc, 16, 2);
  StatConfig cfg;
  cfg.mode = StartupMode::LaunchMon;
  cfg.launcher_pid = job.launcher;
  cfg.n_comm_nodes = 4;
  cfg.tbon_fanout = 4;
  StatOutcome out = run_stat(tc, cfg);
  ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
  const TopologyStorage storage = topology_storage(tc);
  ASSERT_EQ(storage.backends.size(), 16u);
  ASSERT_EQ(storage.comm.size(), 4u);
  EXPECT_TRUE(all_same(storage.backends));
  EXPECT_TRUE(all_same(storage.comm));
}

TEST(Stat, MasterReportsABroadcastTopologyTheDaemonsCannotUse) {
  // The deep path broadcasts the topology after Ready. One that leaves a
  // daemon without a place can never come up, so the master tells the FE
  // why instead of leaving it waiting on the tree.
  TestCluster tc(4);
  JobHandle job = start_job(tc, 4, 2);
  tools::stat::StatBe::install(tc.machine);
  std::optional<std::string> reported;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    const int sid = fe->create_session().value;
    fe->set_be_usrdata_handler(sid, [&](const Bytes& why) {
      reported.emplace(why.begin(), why.end());
    });
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "stat_be";
    const std::string fe_host = self.node().hostname();
    fe->attach_and_spawn(sid, job.launcher, cfg, [&, sid, fe_host](Status st) {
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      // Three back ends for four daemons: rank 3 has no place.
      std::vector<std::string> hosts = fe->proctable(sid)->hosts();
      hosts.pop_back();
      ASSERT_TRUE(fe->send_usrdata_be(sid, tbon::Topology::one_deep(
                                               fe_host, cluster::kTbonBasePort,
                                               hosts)
                                               .pack())
                      .is_ok());
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return reported.has_value(); }));
  EXPECT_EQ(*reported, "TBON topology has 3 back ends for 4 daemons");
}

TEST(Stat, ChunkStreamedSampleMatchesWholePayloadByteForByte) {
  // Shrinking the chunk threshold to a few bytes makes every back end
  // flush per-task partial trees (UpPart) and every interior node
  // early-flush its accumulator, so the whole sample flows as
  // chunk-granularity partial aggregates. The merged tree at the FE must
  // be byte-identical to the whole-payload run - the associativity
  // contract the in-tree fold depends on.
  auto run_with_chunk = [](std::uint32_t chunk_bytes, obs::Metrics* metrics) {
    cluster::CostModel costs;
    costs.iccl_rndv_chunk_bytes = chunk_bytes;
    TestCluster tc(16, /*middleware=*/4, costs);
    tc.machine.set_metrics(metrics);
    JobHandle job = start_job(tc, 16, 4);
    StatConfig cfg;
    cfg.mode = StartupMode::LaunchMon;
    cfg.launcher_pid = job.launcher;
    cfg.n_comm_nodes = 4;
    cfg.tbon_fanout = 4;
    StatOutcome out = run_stat(tc, cfg);
    tc.machine.set_metrics(nullptr);
    return out;
  };
  obs::Metrics streamed_metrics;
  obs::Metrics whole_metrics;
  StatOutcome streamed = run_with_chunk(64, &streamed_metrics);
  StatOutcome whole = run_with_chunk(64 * 1024, &whole_metrics);
  // The tiny chunk really exercised the partial-aggregate path; the
  // default chunk kept the toy-scale sample whole.
  EXPECT_GT(streamed_metrics.counter("tbon.up_parts"), 0.0);
  EXPECT_EQ(whole_metrics.counter("tbon.up_parts"), 0.0);
  // Interior comm nodes relayed partial aggregates upward before their
  // round completed (only non-root nodes early-flush).
  EXPECT_GT(streamed_metrics.counter("tbon.part_flushes"), 0.0);
  EXPECT_EQ(whole_metrics.counter("tbon.part_flushes"), 0.0);
  EXPECT_EQ(streamed_metrics.counter("tbon.rounds_reduced"), 1.0 + 4.0);
  EXPECT_EQ(whole_metrics.counter("tbon.rounds_reduced"), 1.0 + 4.0);
  ASSERT_TRUE(streamed.status.is_ok()) << streamed.status.to_string();
  ASSERT_TRUE(whole.status.is_ok()) << whole.status.to_string();
  check_tree(streamed, 64);
  check_tree(whole, 64);
  ASSERT_TRUE(streamed.tree.has_value());
  ASSERT_TRUE(whole.tree.has_value());
  EXPECT_EQ(streamed.tree->pack(), whole.tree->pack());
  EXPECT_EQ(streamed.classes.size(), whole.classes.size());
}

}  // namespace
}  // namespace lmon
