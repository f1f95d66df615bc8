// Platform-portability tests (paper §4's BlueGene/L port paragraph): the
// engine and APIs run unmodified on a different RM cost profile; only the
// RM-attributed regions change.
#include <gtest/gtest.h>

#include <memory>

#include "bench/bench_util.hpp"
#include "core/fe_api.hpp"
#include "obs/critical_path.hpp"
#include "tests/test_util.hpp"

namespace lmon {
namespace {

using testing::TestCluster;

struct Observed {
  bool ok = false;
  double total = 0;
  double launchmon = 0;
  core::Rpdtab proctable;
};

Observed run(int ndaemons, const cluster::CostModel& costs) {
  TestCluster tc(ndaemons, 0, costs);
  bench::ScopedTrace trace(tc, nullptr, /*record=*/true);

  Observed obs;
  bool done = false;
  Status status;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{ndaemons, 8, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg,
                         [&, sid = sid.value](Status st) {
                           status = st;
                           done = true;
                           if (auto* pt = fe->proctable(sid)) {
                             obs.proctable = *pt;
                           }
                         });
  });
  EXPECT_TRUE(tc.run_until([&] { return done; }, sim::seconds(900)));
  if (!status.is_ok()) return obs;
  const obs::RegionBreakdown r = obs::extract_regions(*trace.tracer());
  obs.ok = true;
  obs.total = r.total;
  obs.launchmon = r.tracing + r.other;
  return obs;
}

TEST(Platform, SameToolRunsUnmodifiedOnBlueGeneLikeRm) {
  const Observed atlas = run(16, cluster::CostModel{});
  const Observed bgl = run(16, cluster::CostModel::bluegene_like());
  ASSERT_TRUE(atlas.ok);
  ASSERT_TRUE(bgl.ok);
  // Identical functional outcome: the tool sees the same RPDTAB shape.
  EXPECT_EQ(atlas.proctable.size(), bgl.proctable.size());
  EXPECT_EQ(atlas.proctable.hosts().size(), bgl.proctable.hosts().size());
}

TEST(Platform, RmCostsDifferButLaunchmonOverheadDoesNot) {
  const Observed atlas = run(64, cluster::CostModel{});
  const Observed bgl = run(64, cluster::CostModel::bluegene_like());
  ASSERT_TRUE(atlas.ok);
  ASSERT_TRUE(bgl.ok);
  // "T(job) and T(daemon) ... significantly higher" on the mpirun platform:
  EXPECT_GT(bgl.total / atlas.total, 2.0);
  // "...LaunchMON has similar overheads on it": identical fixed costs.
  EXPECT_DOUBLE_EQ(atlas.launchmon, bgl.launchmon);
}

TEST(Platform, BlueGeneHasNoAdHocFallback) {
  // Compute nodes run no remote-access service (paper §2: BG/L and the
  // Cray XT3 "do not support direct remote access services"), so the ad hoc
  // baseline is not merely slow - its connections are refused outright.
  const cluster::CostModel bgl = cluster::CostModel::bluegene_like();
  EXPECT_FALSE(bgl.has_remote_access);

  TestCluster tc(2, 0, bgl);
  bool done = false;
  Status result;
  tc.spawn_fe([&](cluster::Process& self) {
    self.connect(tc.machine.compute_node(0).hostname(),
                 cluster::kRshDaemonPort,
                 [&](Status st, cluster::ChannelPtr) {
                   result = st;
                   done = true;
                 });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }));
  EXPECT_FALSE(result.is_ok());
}

}  // namespace
}  // namespace lmon
