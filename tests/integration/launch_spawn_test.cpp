// End-to-end integration tests for launchAndSpawn / attachAndSpawn.
#include <gtest/gtest.h>

#include <algorithm>

#include "comm/bootstrap.hpp"
#include "core/be_api.hpp"
#include "core/fe_api.hpp"
#include "core/lmonp.hpp"
#include "core/payloads.hpp"
#include "rm/apai.hpp"
#include "rm/resource_manager.hpp"
#include "tests/test_util.hpp"

namespace lmon {
namespace {

using testing::TestCluster;

struct LaunchResult {
  bool done = false;
  Status status;
  core::Rpdtab proctable;
  core::Rpdtab daemon_table;
  sim::Time started = 0;
  sim::Time finished = 0;
};

/// Drives a full launchAndSpawn and reports into `out` (owned by the test).
apps::ScriptedFrontEnd::Script make_launch_script(
    LaunchResult* out, int nnodes, int tpn,
    std::shared_ptr<core::FrontEnd>* fe_keep,
    std::string daemon_exe = "hello_be") {
  return [out, nnodes, tpn, fe_keep, daemon_exe](cluster::Process& self) {
    auto fe = std::make_shared<core::FrontEnd>(self);
    *fe_keep = fe;
    ASSERT_TRUE(fe->init().is_ok());
    auto sid = fe->create_session();
    ASSERT_TRUE(sid.is_ok());

    rm::JobSpec job;
    job.nnodes = nnodes;
    job.tasks_per_node = tpn;
    job.executable = "mpi_app";

    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = daemon_exe;

    out->started = self.sim().now();
    fe->launch_and_spawn(sid.value, job, cfg,
                         [out, fe, sid = sid.value, &self](Status st) {
                           out->done = true;
                           out->status = st;
                           out->finished = self.sim().now();
                           if (auto* pt = fe->proctable(sid)) {
                             out->proctable = *pt;
                           }
                           if (auto* dt = fe->daemon_table(sid)) {
                             out->daemon_table = *dt;
                           }
                         });
  };
}

/// What RecordingDaemons report: each BE runtime once its on_init ran, and
/// each daemon's on_ready status.
struct DaemonLog {
  std::map<std::uint32_t, core::BackEnd*> initialized;
  std::map<std::uint32_t, std::string> hosts;  ///< each daemon's node
  std::map<std::uint32_t, Status> ready;
};

/// BE daemon that exposes its runtime to the test through a DaemonLog.
class RecordingDaemon : public cluster::Program {
 public:
  explicit RecordingDaemon(DaemonLog* log) : log_(log) {}
  [[nodiscard]] std::string_view name() const override {
    return "recording_be";
  }

  void on_start(cluster::Process& self) override {
    be_ = std::make_unique<core::BackEnd>(self);
    core::BackEnd::Callbacks cbs;
    cbs.on_init = [this, &self](const core::Rpdtab&, const Bytes&,
                                std::function<void(Status)> done) {
      log_->initialized[be_->rank()] = be_.get();
      log_->hosts[be_->rank()] = self.node().hostname();
      done(Status::ok());
    };
    cbs.on_ready = [this](Status st) { log_->ready[be_->rank()] = st; };
    ASSERT_TRUE(be_->init(std::move(cbs)).is_ok());
  }

  static void install(cluster::Machine& machine, DaemonLog* log) {
    cluster::ProgramImage image;
    image.image_mb = 2.0;
    image.factory = [log](const std::vector<std::string>&) {
      return std::make_unique<RecordingDaemon>(log);
    };
    machine.install_program("recording_be", std::move(image));
  }

 private:
  DaemonLog* log_;
  std::unique_ptr<core::BackEnd> be_;
};

TEST(LaunchSpawn, FourNodeJobLaunchesDaemonsAndTasks) {
  TestCluster tc(4);
  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe(make_launch_script(&result, 4, 8, &fe));

  ASSERT_TRUE(tc.run_until([&] { return result.done; }));
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();

  // RPDTAB: 4 nodes x 8 tasks, ranks 0..31, valid pids, 4 distinct hosts.
  ASSERT_EQ(result.proctable.size(), 32u);
  EXPECT_EQ(result.proctable.hosts().size(), 4u);
  for (std::size_t i = 0; i < result.proctable.size(); ++i) {
    const auto& e = result.proctable.entries()[i];
    EXPECT_EQ(e.rank, static_cast<std::int32_t>(i));
    EXPECT_EQ(e.executable, "mpi_app");
    EXPECT_GT(e.pid, 0);
  }

  // Daemon table: one daemon per node, co-located with the tasks.
  ASSERT_EQ(result.daemon_table.size(), 4u);
  auto task_hosts = result.proctable.hosts();
  auto daemon_hosts = result.daemon_table.hosts();
  std::sort(task_hosts.begin(), task_hosts.end());
  std::sort(daemon_hosts.begin(), daemon_hosts.end());
  EXPECT_EQ(task_hosts, daemon_hosts);

  // All daemons actually run.
  for (const auto& d : result.daemon_table.entries()) {
    cluster::Process* p = tc.machine.find_process(d.pid);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->state(), cluster::ProcState::Running);
    EXPECT_EQ(p->options().executable, "hello_be");
  }
}

TEST(LaunchSpawn, CompletesWellUnderASecondAt16Nodes) {
  TestCluster tc(16);
  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe(make_launch_script(&result, 16, 8, &fe));
  ASSERT_TRUE(tc.run_until([&] { return result.done; }));
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  const double secs = sim::to_seconds(result.finished - result.started);
  EXPECT_LT(secs, 1.0);
  EXPECT_GT(secs, 0.05);  // it does cost something
}

TEST(LaunchSpawn, AttachToRunningJob) {
  TestCluster tc(4);
  // Start the job without any tool.
  auto job_res = rm::run_job(tc.machine, rm::JobSpec{4, 8, "mpi_app", {}});
  ASSERT_TRUE(job_res.is_ok());
  const cluster::Pid launcher_pid = job_res.value;
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));
  ASSERT_EQ(tc.machine.find_process(launcher_pid)->state(),
            cluster::ProcState::Running);

  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    auto sid = fe->create_session();
    ASSERT_TRUE(sid.is_ok());
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    result.started = self.sim().now();
    fe->attach_and_spawn(sid.value, launcher_pid, cfg,
                         [&, sid = sid.value](Status st) {
                           result.done = true;
                           result.status = st;
                           result.finished = self.sim().now();
                           if (auto* pt = fe->proctable(sid)) {
                             result.proctable = *pt;
                           }
                           if (auto* dt = fe->daemon_table(sid)) {
                             result.daemon_table = *dt;
                           }
                         });
  });

  ASSERT_TRUE(tc.run_until([&] { return result.done; }));
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.proctable.size(), 32u);
  EXPECT_EQ(result.daemon_table.size(), 4u);
  // The job keeps running after attach.
  EXPECT_EQ(tc.machine.find_process(launcher_pid)->state(),
            cluster::ProcState::Running);
}

TEST(LaunchSpawn, FailsCleanlyWhenAllocationTooLarge) {
  TestCluster tc(2);
  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe(make_launch_script(&result, 8, 1, &fe));
  ASSERT_TRUE(tc.run_until([&] { return result.done; }));
  EXPECT_FALSE(result.status.is_ok());
}

TEST(LaunchSpawn, SessionReusedIsRejected) {
  TestCluster tc(2);
  bool second_done = false;
  Status second_status;
  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    auto sid = fe->create_session();
    ASSERT_TRUE(sid.is_ok());
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{2, 1, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status st) {
      result.done = true;
      result.status = st;
    });
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status st) {
      second_done = true;
      second_status = st;
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return result.done && second_done; }));
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(second_status.rc(), Rc::Ebusy);
}

TEST(LaunchSpawn, EveryDaemonViewsTheOneRpdtabBuffer) {
  // The handshake broadcast reaches every daemon as a view of the master's
  // buffer, and each daemon's table views it in place: one RPDTAB buffer
  // per launch, not one copy per daemon.
  TestCluster tc(16);
  DaemonLog log;
  RecordingDaemon::install(tc.machine, &log);
  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe(make_launch_script(&result, 16, 8, &fe, "recording_be"));
  ASSERT_TRUE(tc.run_until([&] { return result.done; }));
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();

  ASSERT_EQ(log.initialized.size(), 16u);
  const std::uint8_t* shared =
      log.initialized.at(0)->proctable().bytes().data();
  for (const auto& [rank, be] : log.initialized) {
    EXPECT_EQ(be->proctable(), result.proctable) << "rank " << rank;
    EXPECT_EQ(be->proctable().size(), 128u) << "rank " << rank;
    EXPECT_EQ(be->proctable().bytes().data(), shared) << "rank " << rank;
  }
}

TEST(LaunchSpawn, EveryDaemonsOwnEntriesMatchAFullScanInRankOrder) {
  // my_entries() decodes only this host's entries through the table's
  // shared host index; it must equal filtering every entry by host.
  TestCluster tc(16);
  DaemonLog log;
  RecordingDaemon::install(tc.machine, &log);
  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe(make_launch_script(&result, 16, 8, &fe, "recording_be"));
  ASSERT_TRUE(tc.run_until([&] { return result.done; }));
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();

  ASSERT_EQ(log.initialized.size(), 16u);
  for (const auto& [rank, be] : log.initialized) {
    const std::string& host = log.hosts.at(rank);
    std::vector<rm::TaskDesc> scan;
    for (const rm::TaskDesc& e : be->proctable().entries()) {
      if (e.host == host) scan.push_back(e);
    }
    EXPECT_EQ(scan.size(), 8u) << "rank " << rank;
    EXPECT_EQ(be->my_entries(), scan) << "rank " << rank;
    EXPECT_TRUE(std::is_sorted(scan.begin(), scan.end(),
                               [](const auto& a, const auto& b) {
                                 return a.rank < b.rank;
                               }))
        << "rank " << rank;
  }
}

/// A front end reduced to the LMONP handshake: it answers the master
/// daemon's Hello with a HandshakeInit carrying `rpdtab`, and ends the
/// launch on the master's Ready the way core::FrontEnd does.
class HandshakeOnlyFe : public cluster::Program {
 public:
  static constexpr cluster::Port kPort = 7000;

  HandshakeOnlyFe(Bytes rpdtab, std::optional<Status>* outcome)
      : rpdtab_(std::move(rpdtab)), outcome_(outcome) {}
  [[nodiscard]] std::string_view name() const override {
    return "handshake_fe";
  }

  void on_start(cluster::Process& self) override {
    ASSERT_TRUE(self.listen(kPort, [this, &self](cluster::ChannelPtr ch) {
                      self.set_channel_handler(
                          ch, [this, &self](const cluster::ChannelPtr& c,
                                            cluster::Message m) {
                            on_daemon_message(self, c, m);
                          });
                    }).is_ok());
  }

 private:
  void on_daemon_message(cluster::Process& self, const cluster::ChannelPtr& c,
                         const cluster::Message& m) {
    auto msg = core::LmonpMessage::decode(m);
    if (!msg || msg->msg_class != core::MsgClass::FeBe) return;
    switch (static_cast<core::FeDaemonMsg>(msg->type)) {
      case core::FeDaemonMsg::Hello: {
        core::payload::HandshakeInit init;
        init.rpdtab = rpdtab_;
        self.send(c, core::LmonpMessage::fe_daemon(
                         core::MsgClass::FeBe,
                         core::FeDaemonMsg::HandshakeInit, init.encode())
                         .encode());
        break;
      }
      case core::FeDaemonMsg::Ready: {
        auto ready = core::payload::Ready::decode(msg->lmon_payload);
        ASSERT_TRUE(ready.has_value());
        *outcome_ = ready->ok ? Status::ok()
                              : Status(Rc::Esubcom,
                                       "daemons failed: " + ready->error);
        break;
      }
      default:
        break;
    }
  }

  Bytes rpdtab_;
  std::optional<Status>* outcome_;
};

TEST(LaunchSpawn, BadRpdtabInHandshakeFailsEveryDaemonWithAStatus) {
  // An over-counted table reaches the daemons through the handshake
  // broadcast (no layer above lets one through, so a minimal FE sends it).
  // Every daemon must reject it, and the master must end the launch with a
  // failed Ready instead of waiting for acks that never come.
  const int n = 4;
  TestCluster tc(n);
  DaemonLog log;
  std::optional<Status> outcome;

  Bytes table = rm::apai::encode_proctable(
      {{"atlas0", "mpi_app", 1001, 0}, {"atlas1", "mpi_app", 1002, 1}});
  table[0] += 1;  // the u32 entry count now claims one entry too many
  ASSERT_FALSE(core::Rpdtab::unpack(table).has_value());
  cluster::SpawnOptions fe_opts;
  fe_opts.executable = "handshake_fe";
  ASSERT_TRUE(tc.machine.front_end()
                  .spawn(std::make_unique<HandshakeOnlyFe>(table, &outcome),
                         std::move(fe_opts))
                  .is_ok());

  comm::BootstrapSpec spec;
  spec.size = n;
  spec.topology = {comm::TopologyKind::KAry, 2};
  spec.port = cluster::kToolFabricBasePort;
  spec.session = "bad-rpdtab";
  spec.fe_host = tc.machine.front_end().hostname();
  spec.fe_port = HandshakeOnlyFe::kPort;
  for (int i = 0; i < n; ++i) {
    spec.hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  for (std::uint32_t r = 0; r < spec.size; ++r) {
    cluster::SpawnOptions opts;
    opts.executable = "recording_be";
    opts.args = comm::bootstrap_args(spec, r);
    ASSERT_TRUE(tc.machine.compute_node(static_cast<int>(r))
                    .spawn(std::make_unique<RecordingDaemon>(&log),
                           std::move(opts))
                    .is_ok());
  }

  ASSERT_TRUE(tc.run_until([&] {
    return outcome.has_value() && static_cast<int>(log.ready.size()) == n;
  }));
  EXPECT_EQ(outcome->rc(), Rc::Esubcom);
  EXPECT_NE(outcome->message().find("bad RPDTAB in handshake"),
            std::string::npos)
      << outcome->to_string();
  for (const auto& [rank, st] : log.ready) {
    EXPECT_EQ(st.rc(), Rc::Esubcom) << "rank " << rank;
    EXPECT_EQ(st.message(), "bad RPDTAB in handshake") << "rank " << rank;
  }
  EXPECT_TRUE(log.initialized.empty());
}

}  // namespace
}  // namespace lmon
