// Integration tests for the Middleware API (paper §3.4): personality
// handles, separate allocations, RPDTAB distribution to TBON daemons.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "core/fe_api.hpp"
#include "core/mw_api.hpp"
#include "tests/test_util.hpp"

namespace lmon {
namespace {

using testing::TestCluster;

struct MwState {
  std::map<std::uint32_t, std::string> personalities;  // rank -> host
  std::map<std::uint32_t, std::size_t> proctable_sizes;
  std::map<std::uint32_t, Bytes> usrdata;
  std::map<std::uint32_t, std::uint32_t> rndv_thresholds;
  int ready = 0;
};

class ProbeMwDaemon : public cluster::Program {
 public:
  explicit ProbeMwDaemon(MwState* state) : state_(state) {}
  [[nodiscard]] std::string_view name() const override { return "probe_mw"; }

  void on_start(cluster::Process& self) override {
    mw_ = std::make_unique<core::MiddleWare>(self);
    core::MiddleWare::Callbacks cbs;
    cbs.on_init = [this, &self](const core::Rpdtab& table,
                                const Bytes& usrdata,
                                std::function<void(Status)> done) {
      state_->personalities[mw_->rank()] = self.node().hostname();
      state_->proctable_sizes[mw_->rank()] = table.size();
      state_->usrdata[mw_->rank()] = usrdata;
      state_->rndv_thresholds[mw_->rank()] = mw_->iccl().rndv_threshold();
      done(Status::ok());
    };
    cbs.on_ready = [this](Status st) {
      if (st.is_ok()) state_->ready += 1;
    };
    ASSERT_TRUE(mw_->init(std::move(cbs)).is_ok());
  }

  static void install(cluster::Machine& machine, MwState* state) {
    cluster::ProgramImage image;
    image.image_mb = 5.0;
    image.factory = [state](const std::vector<std::string>&) {
      return std::make_unique<ProbeMwDaemon>(state);
    };
    machine.install_program("probe_mw", std::move(image));
  }

 private:
  MwState* state_;
  std::unique_ptr<core::MiddleWare> mw_;
};

TEST(MiddleWare, DaemonsGetPersonalitiesAndJobRpdtab) {
  TestCluster tc(8, /*middleware=*/4);
  MwState state;
  ProbeMwDaemon::install(tc.machine, &state);

  std::shared_ptr<core::FrontEnd> fe;
  int sid = -1;
  bool be_done = false;
  bool mw_done = false;
  Status be_status;
  Status mw_status;
  int provider_calls = 0;
  std::size_t provider_saw_mw = 0;

  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    sid = fe->create_session().value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{8, 4, "mpi_app", {}};
    fe->launch_and_spawn(sid, job, cfg, [&](Status st) {
      be_status = st;
      be_done = true;
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      core::FrontEnd::SpawnConfig mw_cfg;
      mw_cfg.daemon_exe = "probe_mw";
      // The provider runs when the FE sends the MW handshake; a tool
      // builds its TBON topology here, so the MW table must be known.
      mw_cfg.fe_data_provider = [&]() -> Bytes {
        provider_calls += 1;
        const core::Rpdtab* table = fe->mw_table(sid);
        provider_saw_mw = table != nullptr ? table->size() : 0;
        return Bytes{0xAB};
      };
      fe->launch_mw_daemons(sid, 4, mw_cfg, [&](Status mst) {
        mw_status = mst;
        mw_done = true;
      });
    });
  });

  ASSERT_TRUE(tc.run_until([&] { return be_done && mw_done; }));
  ASSERT_TRUE(mw_status.is_ok()) << mw_status.to_string();
  ASSERT_TRUE(tc.run_until([&] { return state.ready == 4; }));

  // "assigns to each simultaneously launched TBON daemon a unique
  // personality handle that is similar to an MPI rank"
  ASSERT_EQ(state.personalities.size(), 4u);
  for (std::uint32_t r = 0; r < 4; ++r) {
    ASSERT_TRUE(state.personalities.count(r)) << "missing personality " << r;
  }
  // MW daemons run on the middleware partition, not on job nodes.
  std::set<std::string> mw_hosts;
  for (const auto& [rank, host] : state.personalities) {
    mw_hosts.insert(host);
  }
  const core::Rpdtab* pt = fe->proctable(sid);
  ASSERT_NE(pt, nullptr);
  for (const auto& h : pt->hosts()) {
    EXPECT_EQ(mw_hosts.count(h), 0u) << "MW daemon landed on a job node";
  }

  // "LaunchMON's middleware initialization also distributes the RPDTAB to
  // the TBON daemons."
  for (const auto& [rank, size] : state.proctable_sizes) {
    EXPECT_EQ(size, 32u);  // 8 nodes x 4 tasks
  }
  // Piggybacked MW tool data arrived everywhere.
  for (const auto& [rank, data] : state.usrdata) {
    EXPECT_EQ(data, Bytes{0xAB});
  }
  // The MW daemon table is exposed to the tool.
  const core::Rpdtab* mw_table = fe->mw_table(sid);
  ASSERT_NE(mw_table, nullptr);
  EXPECT_EQ(mw_table->size(), 4u);
  // ... and it was already filled when the handshake asked the tool for
  // its data (the MW master can dial in before the engine reports it).
  EXPECT_EQ(provider_calls, 1);
  EXPECT_EQ(provider_saw_mw, 4u);
}

TEST(MiddleWare, DaemonsFollowTheEnginesThreshold) {
  // The session's threshold comes from the engine's tuner: a calibration
  // file moves it off the machine's own (1 MiB), and the MW daemons, which
  // the engine launches through a separate RM path, must use it too.
  const std::string calib = ::testing::TempDir() + "mw_rndv_threshold.conf";
  {
    std::ofstream out(calib);
    out << "iccl_rndv_threshold_bytes = 4096\n";
  }
  ASSERT_NE(cluster::CostModel{}.iccl_rndv_threshold_bytes, 4096u);
  TestCluster tc(4, /*middleware=*/4);
  MwState state;
  ProbeMwDaemon::install(tc.machine, &state);

  std::shared_ptr<core::FrontEnd> fe;
  int sid = -1;
  bool mw_done = false;
  Status mw_status;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    sid = fe->create_session().value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    cfg.rndv = {core::RndvSetting::Mode::PlatformDefault, 0};
    cfg.calibration_file = calib;
    rm::JobSpec job{4, 2, "mpi_app", {}};
    fe->launch_and_spawn(sid, job, cfg, [&](Status st) {
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      core::FrontEnd::SpawnConfig mw_cfg;
      mw_cfg.daemon_exe = "probe_mw";
      fe->launch_mw_daemons(sid, 4, mw_cfg, [&](Status mst) {
        mw_status = mst;
        mw_done = true;
      });
    });
  });

  ASSERT_TRUE(tc.run_until([&] { return mw_done; }));
  ASSERT_TRUE(mw_status.is_ok()) << mw_status.to_string();
  ASSERT_TRUE(tc.run_until([&] { return state.ready == 4; }));
  const core::TunedConfig* tuned = fe->tuned_config(sid);
  ASSERT_NE(tuned, nullptr);
  EXPECT_EQ(tuned->rndv_threshold, 4096u);
  ASSERT_EQ(state.rndv_thresholds.size(), 4u);
  for (const auto& [rank, threshold] : state.rndv_thresholds) {
    EXPECT_EQ(threshold, tuned->rndv_threshold) << "MW rank " << rank;
  }
  std::remove(calib.c_str());
}

TEST(MiddleWare, FailsWhenMiddlewarePartitionTooSmall) {
  TestCluster tc(4, /*middleware=*/1);
  MwState state;
  ProbeMwDaemon::install(tc.machine, &state);
  std::shared_ptr<core::FrontEnd> fe;
  bool mw_done = false;
  Status mw_status;

  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    const int sid = fe->create_session().value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{4, 1, "mpi_app", {}};
    fe->launch_and_spawn(sid, job, cfg, [&, sid](Status st) {
      ASSERT_TRUE(st.is_ok());
      core::FrontEnd::SpawnConfig mw_cfg;
      mw_cfg.daemon_exe = "probe_mw";
      fe->launch_mw_daemons(sid, 3, mw_cfg, [&](Status mst) {
        mw_status = mst;
        mw_done = true;
      });
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return mw_done; }));
  EXPECT_FALSE(mw_status.is_ok());
}

TEST(MiddleWare, RequiresAnActiveSession) {
  TestCluster tc(2, 2);
  MwState state;
  ProbeMwDaemon::install(tc.machine, &state);
  bool done = false;
  Status status;
  tc.spawn_fe([&](cluster::Process& self) {
    auto fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    const int sid = fe->create_session().value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "probe_mw";
    fe->launch_mw_daemons(sid, 2, cfg, [&, fe](Status st) {
      status = st;
      done = true;
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }));
  EXPECT_EQ(status.rc(), Rc::Einval);  // no engine yet
}

}  // namespace
}  // namespace lmon
