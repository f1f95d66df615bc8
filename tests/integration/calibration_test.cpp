// Calibration-anchor tests: assert that the simulated Atlas reproduces the
// paper's published result *shapes* (DESIGN.md §5). These are the
// regression guards for the reproduction itself - if a cost-model change
// breaks an anchor, a figure has silently drifted.
#include <gtest/gtest.h>

#include <memory>

#include "bench/ablation_rsh_lib.hpp"
#include "core/fe_api.hpp"
#include "core/perf_model.hpp"
#include "obs/critical_path.hpp"
#include "rsh/launchers.hpp"
#include "tests/test_util.hpp"
#include "tools/jobsnap/jobsnap_be.hpp"
#include "tools/jobsnap/jobsnap_fe.hpp"

namespace lmon {
namespace {

using testing::TestCluster;

double launch_and_spawn_seconds(int ndaemons, int tpn) {
  TestCluster tc(ndaemons);
  bool done = false;
  Status status;
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{ndaemons, tpn, "mpi_app", {}};
    t0 = self.sim().now();
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status st) {
      status = st;
      t1 = self.sim().now();
      done = true;
    });
  });
  EXPECT_TRUE(tc.run_until([&] { return done; }, sim::seconds(600)));
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  return sim::to_seconds(t1 - t0);
}

TEST(Calibration, LaunchAndSpawnUnderOneSecondAt128Nodes) {
  // Paper Fig. 3: "launchAndSpawn scales well, taking less than one second
  // at 128 nodes (1024 MPI tasks)".
  const double secs = launch_and_spawn_seconds(128, 8);
  EXPECT_LT(secs, 1.0);
  EXPECT_GT(secs, 0.2);  // and it is not free
}

TEST(Calibration, LaunchmonShareAboutFivePercentAt128Nodes) {
  // Paper Fig. 3: "the portions due to LaunchMON constitute only about
  // 5.2% of that total time."
  TestCluster tc(128);
  bench::ScopedTrace trace(tc, nullptr, /*record=*/true);

  bool done = false;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{128, 8, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status) { done = true; });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }));

  const obs::RegionBreakdown r = obs::extract_regions(*trace.tracer());
  const double share = (r.tracing + r.rpdtab + r.other) / r.total;
  EXPECT_GT(share, 0.02);
  EXPECT_LT(share, 0.10);
  // Tracing cost is 18 ms at any scale (12 events x 1.5 ms).
  EXPECT_EQ(trace.tracer()->charges().total("tracing"), sim::ms(18));
}

TEST(Calibration, SerialRshIsRoughlyQuarterSecondPerNode) {
  // Paper Fig. 6: 60.8 s at 256 nodes serial => ~237 ms per target.
  TestCluster tc(8);
  bool done = false;
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  std::vector<rsh::LaunchTarget> targets;
  for (int i = 0; i < 8; ++i) {
    targets.push_back(rsh::LaunchTarget{
        tc.machine.compute_node(i).hostname(), "sleeperd", {}});
  }
  std::vector<cluster::ChannelPtr> keep;
  tc.spawn_fe([&](cluster::Process& self) {
    t0 = self.sim().now();
    rsh::SerialRshLauncher::launch(self, targets,
                                   [&](rsh::LaunchOutcome out) {
                                     ASSERT_TRUE(out.status.is_ok());
                                     keep = std::move(out.sessions);
                                     t1 = self.sim().now();
                                     done = true;
                                   });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }));
  const double per_node = sim::to_seconds(t1 - t0) / 8.0;
  EXPECT_NEAR(per_node, 0.237, 0.05);
}

TEST(Calibration, RshFailsNearThePaperForkLimit) {
  // Paper: the ad hoc launch "consistently fails" at 512 nodes; our model
  // puts the per-user limit at 500 concurrent helpers.
  const cluster::CostModel costs;
  EXPECT_GE(costs.rsh_fork_limit, 400);
  EXPECT_LT(costs.rsh_fork_limit, 512);
}

TEST(Calibration, SerialRshModelHitsThePaperRateAt256Nodes) {
  // Paper Fig. 6: serial ad hoc launching costs 60.8 s at 256 nodes. The
  // per-strategy analytic model's T(daemon) must land on that anchor.
  const cluster::CostModel costs;
  const core::PerfModel model(
      costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  const auto p = model.predict(comm::LaunchStrategyKind::SerialRsh,
                               comm::TopologySpec{comm::TopologyKind::KAry, 0},
                               256, 8);
  EXPECT_NEAR(p.t_daemon, 60.8, 3.0);
}

TEST(Calibration, SerialRshConsistentlyFailsAt512ThroughTheFeApi) {
  // The paper's hard 512-node failure, end to end: the same launchAndSpawn
  // that works under rm-bulk fails under serial-rsh at 512 nodes, and the
  // analytic model predicts exactly that. Uses the bench's own measurement
  // harness (negative = launch failed).
  const int n = 512;
  EXPECT_LT(bench::measure_launch_and_spawn(
                comm::LaunchStrategyKind::SerialRsh,
                comm::TopologySpec{comm::TopologyKind::KAry, 0}, n, 1),
            0.0);

  const cluster::CostModel costs;
  const core::PerfModel model(
      costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  EXPECT_TRUE(
      model.predicts_failure(comm::LaunchStrategyKind::SerialRsh, n));
  EXPECT_FALSE(
      model.predicts_failure(comm::LaunchStrategyKind::SerialRsh, 256));
}

TEST(Calibration, ModelCrossoversPutRmBulkFirstFromTheStart) {
  // Figure 4's story in crossover form: with the calibrated constants the
  // rsh tree overtakes the serial loop almost immediately, and the
  // RM-native launch wins outright from the smallest scales - there is no
  // regime where an ad hoc strategy is the right choice on Atlas.
  const cluster::CostModel costs;
  const core::PerfModel model(
      costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  const comm::TopologySpec tree_topo{comm::TopologyKind::KAry, 8};
  const auto tree_over_serial =
      model.crossover(comm::LaunchStrategyKind::TreeRsh,
                      comm::LaunchStrategyKind::SerialRsh, tree_topo, 8);
  ASSERT_TRUE(tree_over_serial.has_value());
  EXPECT_LE(*tree_over_serial, 4);
  const auto rm_over_tree =
      model.crossover(comm::LaunchStrategyKind::RmBulk,
                      comm::LaunchStrategyKind::TreeRsh, tree_topo, 8);
  ASSERT_TRUE(rm_over_tree.has_value());
  EXPECT_LE(*rm_over_tree, 4);
}

TEST(Calibration, JobsnapLastDoublingIsSuperLinear) {
  // Paper Fig. 5: 512->1024 daemons more than doubles the time ("the
  // sub-optimal scaling characteristics of the RM functionality").
  auto run = [](int ndaemons) {
    TestCluster tc(ndaemons);
    tools::jobsnap::JobsnapBe::install(tc.machine);
    auto job =
        rm::run_job(tc.machine, rm::JobSpec{ndaemons, 8, "mpi_app", {}});
    EXPECT_TRUE(job.is_ok());
    tc.simulator.run(tc.simulator.now() + sim::seconds(10));
    tools::jobsnap::JobsnapOutcome out;
    cluster::SpawnOptions opts;
    opts.executable = "jobsnap_fe";
    auto res = tc.machine.front_end().spawn(
        std::make_unique<tools::jobsnap::JobsnapFe>(job.value, &out),
        std::move(opts));
    EXPECT_TRUE(res.is_ok());
    EXPECT_TRUE(tc.run_until([&] { return out.done; }, sim::seconds(900)));
    EXPECT_TRUE(out.status.is_ok());
    return sim::to_seconds(out.t_done - out.t_start);
  };
  const double at512 = run(512);
  const double at1024 = run(1024);
  EXPECT_GT(at1024 / at512, 2.0);   // super-linear doubling
  EXPECT_LT(at512, 1.5);            // paper: well under 1.5 s at 4096 tasks
  EXPECT_GT(at1024, 1.5);
  EXPECT_LT(at1024, 4.0);           // paper: 2.92 s
}

TEST(Calibration, DpclParseDominatedByLauncherImage) {
  const cluster::CostModel costs;
  const double parse_secs =
      costs.launcher_image_mb * sim::to_seconds(costs.dpcl_parse_per_mb);
  // Paper Table 1: ~34 s, flat.
  EXPECT_GT(parse_secs, 25.0);
  EXPECT_LT(parse_secs, 45.0);
}

}  // namespace
}  // namespace lmon
