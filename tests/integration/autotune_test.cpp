// Integration tests for self-tuning sessions: the engine's auto-tuner
// (core::auto_tune driven from SpawnConfig via --launch-strategy=auto /
// --fabric-topo=auto / --rndv=...) resolving real sessions end to end, the
// TunedConfig decision record riding back to the FE, and the rendezvous
// setting spellings steering the live fabric.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "cluster/cost_model_registry.hpp"
#include "core/be_api.hpp"
#include "core/fe_api.hpp"
#include "core/perf_model.hpp"
#include "obs/metrics.hpp"
#include "tests/test_util.hpp"

namespace lmon {
namespace {

using testing::TestCluster;

struct SessionResult {
  bool done = false;
  Status status;
  core::TunedConfig tuned;
  bool have_tuned = false;
};

/// Launches one session under `cfg` and copies the FE-side decision record
/// into `out` when the operation completes.
void run_session(TestCluster& tc, core::FrontEnd::SpawnConfig cfg, int nnodes,
                 int tpn, SessionResult* out,
                 std::shared_ptr<core::FrontEnd>* fe_keep) {
  tc.spawn_fe([out, fe_keep, cfg = std::move(cfg), nnodes,
               tpn](cluster::Process& self) mutable {
    auto fe = std::make_shared<core::FrontEnd>(self);
    *fe_keep = fe;
    ASSERT_TRUE(fe->init().is_ok());
    auto sid = fe->create_session();
    ASSERT_TRUE(sid.is_ok());
    if (cfg.daemon_exe.empty()) cfg.daemon_exe = "hello_be";
    rm::JobSpec job{nnodes, tpn, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, std::move(cfg),
                         [out, fe, sid = sid.value](Status st) {
                           out->done = true;
                           out->status = st;
                           if (const core::TunedConfig* t =
                                   fe->tuned_config(sid)) {
                             out->tuned = *t;
                             out->have_tuned = true;
                           }
                         });
  });
}

TEST(AutoTune, DefaultSessionIsTunedAndRecordsTheDecision) {
  TestCluster tc(8);
  SessionResult r;
  std::shared_ptr<core::FrontEnd> fe;
  run_session(tc, {}, 8, 2, &r, &fe);
  ASSERT_TRUE(tc.run_until([&] { return r.done; }));
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();

  // Every knob was unset, so every decision is the model's, and the record
  // rode back on DaemonsSpawned.
  ASSERT_TRUE(r.have_tuned);
  EXPECT_TRUE(r.tuned.strategy_from_model);
  EXPECT_TRUE(r.tuned.topology_from_model);
  EXPECT_TRUE(r.tuned.rndv_from_model);
  EXPECT_GT(r.tuned.predicted_total_s, 0.0);
  EXPECT_NE(r.tuned.rndv_threshold, 0u);
  const cluster::CostModel costs;
  const core::PerfModel model(
      costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  EXPECT_FALSE(model.predicts_failure(r.tuned.strategy, 8));
}

TEST(AutoTune, FiveTwelveNodeAutoSessionNeverPicksSerialRsh) {
  // The paper's point at scale: past the fork limit serial-rsh cannot even
  // complete, and well before that it is never the cheapest. An auto-tuned
  // 512-node session must not come anywhere near it.
  TestCluster tc(512);
  SessionResult r;
  std::shared_ptr<core::FrontEnd> fe;
  run_session(tc, {}, 512, 1, &r, &fe);
  ASSERT_TRUE(tc.run_until([&] { return r.done; }, sim::seconds(600)));
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  ASSERT_TRUE(r.have_tuned);
  EXPECT_NE(r.tuned.strategy, comm::LaunchStrategyKind::SerialRsh);
  const cluster::CostModel costs;
  const core::PerfModel model(
      costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  EXPECT_FALSE(model.predicts_failure(r.tuned.strategy, 512));
}

TEST(AutoTune, ExplicitKnobsWinOverTheModel) {
  TestCluster tc(8);
  SessionResult r;
  std::shared_ptr<core::FrontEnd> fe;
  core::FrontEnd::SpawnConfig cfg;
  cfg.launch_strategy = comm::LaunchStrategyKind::TreeRsh;
  cfg.topology = comm::TopologySpec{comm::TopologyKind::KAry, 2};
  cfg.rndv = {core::RndvSetting::Mode::Bytes, 7777};
  run_session(tc, cfg, 8, 2, &r, &fe);
  ASSERT_TRUE(tc.run_until([&] { return r.done; }));
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  ASSERT_TRUE(r.have_tuned);
  EXPECT_EQ(r.tuned.strategy, comm::LaunchStrategyKind::TreeRsh);
  EXPECT_EQ(r.tuned.topology,
            (comm::TopologySpec{comm::TopologyKind::KAry, 2}));
  EXPECT_EQ(r.tuned.rndv_threshold, 7777u);
  EXPECT_FALSE(r.tuned.strategy_from_model);
  EXPECT_FALSE(r.tuned.topology_from_model);
  EXPECT_FALSE(r.tuned.rndv_from_model);
}

TEST(AutoTune, RndvSpellingsPinTheSessionThreshold) {
  struct Case {
    core::RndvSetting setting;
    std::uint32_t expect;
  };
  const cluster::CostModel costs;
  const Case cases[] = {
      {{core::RndvSetting::Mode::AlwaysEager, 0},
       std::numeric_limits<std::uint32_t>::max()},
      {{core::RndvSetting::Mode::AlwaysRndv, 0}, 1},
      {{core::RndvSetting::Mode::Bytes, 4096}, 4096},
      {{core::RndvSetting::Mode::PlatformDefault, 0},
       costs.iccl_rndv_threshold_bytes},
  };
  for (const Case& c : cases) {
    TestCluster tc(4);
    SessionResult r;
    std::shared_ptr<core::FrontEnd> fe;
    core::FrontEnd::SpawnConfig cfg;
    cfg.rndv = c.setting;
    run_session(tc, cfg, 4, 1, &r, &fe);
    ASSERT_TRUE(tc.run_until([&] { return r.done; }))
        << c.setting.to_string();
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    ASSERT_TRUE(r.have_tuned) << c.setting.to_string();
    EXPECT_EQ(r.tuned.rndv_threshold, c.expect) << c.setting.to_string();
    EXPECT_FALSE(r.tuned.rndv_from_model) << c.setting.to_string();
  }
}

/// A BE daemon that records, per rank, the eager/rendezvous threshold its
/// ICCL resolved from the bootstrap.
class ThresholdProbeBe : public cluster::Program {
 public:
  explicit ThresholdProbeBe(std::map<std::uint32_t, std::uint32_t>* seen)
      : seen_(seen) {}
  [[nodiscard]] std::string_view name() const override {
    return "threshold_probe_be";
  }

  void on_start(cluster::Process& self) override {
    be_ = std::make_unique<core::BackEnd>(self);
    core::BackEnd::Callbacks cbs;
    cbs.on_init = [this](const core::Rpdtab&, const Bytes&,
                         std::function<void(Status)> done) {
      (*seen_)[be_->rank()] = be_->iccl().rndv_threshold();
      done(Status::ok());
    };
    cbs.on_ready = [](Status) {};
    ASSERT_TRUE(be_->init(std::move(cbs)).is_ok());
  }

  static void install(cluster::Machine& machine,
                      std::map<std::uint32_t, std::uint32_t>* seen) {
    cluster::ProgramImage image;
    image.image_mb = machine.costs().tool_daemon_image_mb;
    image.factory = [seen](const std::vector<std::string>&) {
      return std::make_unique<ThresholdProbeBe>(seen);
    };
    machine.install_program("threshold_probe_be", std::move(image));
  }

 private:
  std::map<std::uint32_t, std::uint32_t>* seen_;
  std::unique_ptr<core::BackEnd> be_;
};

TEST(AutoTune, EveryDaemonFollowsTheEnginesThreshold) {
  // The calibration file moves the profile threshold off the machine's own
  // (1 MiB), so a daemon that resolved its threshold from anything but the
  // engine's decision would show up here, whichever strategy launched it.
  const std::string calib =
      ::testing::TempDir() + "autotune_rndv_threshold.conf";
  {
    std::ofstream out(calib);
    out << "iccl_rndv_threshold_bytes = 4096\n";
  }
  ASSERT_NE(cluster::CostModel{}.iccl_rndv_threshold_bytes, 4096u);
  for (const auto strategy : {comm::LaunchStrategyKind::RmBulk,
                              comm::LaunchStrategyKind::TreeRsh,
                              comm::LaunchStrategyKind::SerialRsh}) {
    TestCluster tc(4);
    std::map<std::uint32_t, std::uint32_t> seen;
    ThresholdProbeBe::install(tc.machine, &seen);
    SessionResult r;
    std::shared_ptr<core::FrontEnd> fe;
    core::FrontEnd::SpawnConfig cfg;
    cfg.launch_strategy = strategy;
    cfg.rndv = {core::RndvSetting::Mode::PlatformDefault, 0};
    cfg.calibration_file = calib;
    cfg.daemon_exe = "threshold_probe_be";
    run_session(tc, cfg, 4, 1, &r, &fe);
    ASSERT_TRUE(tc.run_until([&] { return r.done; }));
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    ASSERT_TRUE(r.have_tuned);
    EXPECT_EQ(r.tuned.rndv_threshold, 4096u);
    ASSERT_EQ(seen.size(), 4u) << comm::to_string(strategy);
    for (const auto& [rank, threshold] : seen) {
      EXPECT_EQ(threshold, r.tuned.rndv_threshold)
          << comm::to_string(strategy) << " rank " << rank;
    }
  }
  std::remove(calib.c_str());
}

TEST(AutoTune, PlatformProfileSteersTheTunerAndIsRecorded) {
  // A bluegene-profile session on a matching machine: every rsh flavor
  // predicts failure, so the tuner must land on rm-bulk, and the profile
  // name rides back in the decision record.
  TestCluster tc(8, 0, cluster::CostModel::bluegene_like());
  SessionResult r;
  std::shared_ptr<core::FrontEnd> fe;
  core::FrontEnd::SpawnConfig cfg;
  cfg.platform_profile = "bluegene";
  run_session(tc, cfg, 8, 1, &r, &fe);
  ASSERT_TRUE(tc.run_until([&] { return r.done; }));
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  ASSERT_TRUE(r.have_tuned);
  EXPECT_EQ(r.tuned.platform, "bluegene");
  EXPECT_EQ(r.tuned.strategy, comm::LaunchStrategyKind::RmBulk);
}

TEST(AutoTune, UnknownPlatformProfileFailsTheSessionCleanly) {
  TestCluster tc(4);
  SessionResult r;
  std::shared_ptr<core::FrontEnd> fe;
  core::FrontEnd::SpawnConfig cfg;
  cfg.platform_profile = "asci-q";
  run_session(tc, cfg, 4, 1, &r, &fe);
  ASSERT_TRUE(tc.run_until([&] { return r.done; }));
  EXPECT_FALSE(r.status.is_ok());
  EXPECT_FALSE(r.have_tuned);
}

TEST(AutoTune, TunerEmitsMetricsGauges) {
  TestCluster tc(8);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  SessionResult r;
  std::shared_ptr<core::FrontEnd> fe;
  run_session(tc, {}, 8, 2, &r, &fe);
  ASSERT_TRUE(tc.run_until([&] { return r.done; }));
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  tc.machine.set_metrics(nullptr);
  EXPECT_GT(metrics.gauge("autotune.predicted_total_s"), 0.0);
  EXPECT_GT(metrics.gauge("autotune.rndv_threshold_bytes"), 0.0);
  EXPECT_GT(metrics.gauge("autotune.fabric_arity"), 0.0);
}

}  // namespace
}  // namespace lmon
