// Tests for the TBON-based Jobsnap variant (the paper's §5.1 future-work
// item): it must produce the identical report to the flat-gather tool.
#include <gtest/gtest.h>

#include <memory>

#include "tests/test_util.hpp"
#include "tools/jobsnap/jobsnap_be.hpp"
#include "tools/jobsnap/jobsnap_fe.hpp"
#include "tools/jobsnap/jobsnap_tbon.hpp"

namespace lmon::tools::jobsnap {
namespace {

using lmon::testing::TestCluster;

cluster::Pid start_job(TestCluster& tc, int nnodes, int tpn) {
  auto res = rm::run_job(tc.machine, rm::JobSpec{nnodes, tpn, "mpi_app", {}});
  EXPECT_TRUE(res.is_ok());
  tc.simulator.run(tc.simulator.now() + sim::seconds(3));
  return res.value;
}

TEST(JobsnapTbon, ProducesCompleteRankSortedReport) {
  TestCluster tc(8);
  JobsnapTbonBe::install(tc.machine);
  const cluster::Pid launcher = start_job(tc, 8, 4);

  JobsnapTbonOutcome out;
  cluster::SpawnOptions opts;
  opts.executable = "jobsnap_tfe";
  auto res = tc.machine.front_end().spawn(
      std::make_unique<JobsnapTbonFe>(launcher, &out), std::move(opts));
  ASSERT_TRUE(res.is_ok());
  ASSERT_TRUE(tc.run_until([&] { return out.done; }));
  ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();

  EXPECT_EQ(out.tasks, 32u);
  EXPECT_EQ(std::count(out.report.begin(), out.report.end(), '\n'), 33);
  // Rank-sorted: rank 0 line precedes rank 31 line.
  EXPECT_LT(out.report.find("atlas1"), out.report.rfind("atlas8"));
}

TEST(JobsnapTbon, MatchesFlatGatherVariant) {
  // Same cluster seed + same moment => identical /proc state; the two
  // variants must emit byte-identical reports (after the header).
  auto run_flat = [](std::string* report) {
    TestCluster tc(4);
    JobsnapBe::install(tc.machine);
    const cluster::Pid launcher = start_job(tc, 4, 4);
    JobsnapOutcome out;
    cluster::SpawnOptions opts;
    opts.executable = "jobsnap_fe";
    ASSERT_TRUE(tc.machine.front_end()
                    .spawn(std::make_unique<JobsnapFe>(launcher, &out),
                           std::move(opts))
                    .is_ok());
    ASSERT_TRUE(tc.run_until([&] { return out.done; }));
    ASSERT_TRUE(out.status.is_ok());
    *report = out.report;
  };
  auto run_tbon = [](std::string* report) {
    TestCluster tc(4);
    JobsnapTbonBe::install(tc.machine);
    const cluster::Pid launcher = start_job(tc, 4, 4);
    JobsnapTbonOutcome out;
    cluster::SpawnOptions opts;
    opts.executable = "jobsnap_tfe";
    ASSERT_TRUE(tc.machine.front_end()
                    .spawn(std::make_unique<JobsnapTbonFe>(launcher, &out),
                           std::move(opts))
                    .is_ok());
    ASSERT_TRUE(tc.run_until([&] { return out.done; }));
    ASSERT_TRUE(out.status.is_ok());
    *report = out.report;
  };

  std::string flat;
  std::string tbon;
  run_flat(&flat);
  run_tbon(&tbon);
  ASSERT_FALSE(flat.empty());
  // The snapshots are taken a few ms apart in sim time, so utime columns
  // can differ by one tick; compare the stable identity columns.
  auto identity_columns = [](const std::string& report) {
    std::string out;
    std::size_t pos = 0;
    while (pos < report.size()) {
      std::size_t nl = report.find('\n', pos);
      if (nl == std::string::npos) nl = report.size();
      out += report.substr(pos, std::min<std::size_t>(45, nl - pos));
      out += '\n';
      pos = nl + 1;
    }
    return out;
  };
  EXPECT_EQ(identity_columns(flat), identity_columns(tbon));
}

TEST(JobsnapTbon, BackEndsShareOneDecodedTopology) {
  // Every back end views the one handshake broadcast that carries the
  // topology, so they hold one decoded value and no copy of their own.
  TestCluster tc(8);
  JobsnapTbonBe::install(tc.machine);
  const cluster::Pid launcher = start_job(tc, 8, 2);
  JobsnapTbonOutcome out;
  cluster::SpawnOptions opts;
  opts.executable = "jobsnap_tfe";
  ASSERT_TRUE(tc.machine.front_end()
                  .spawn(std::make_unique<JobsnapTbonFe>(launcher, &out),
                         std::move(opts))
                  .is_ok());
  // The sweep starts once the tree is up; the daemons leave at detach.
  ASSERT_TRUE(tc.run_until([&] { return out.t_snap_sent != 0; }));
  std::vector<const tbon::TopoNode*> storage;
  for (int i = 0; i < tc.machine.num_compute_nodes(); ++i) {
    for (cluster::Process* p : tc.machine.compute_node(i).live_processes()) {
      auto* be = dynamic_cast<JobsnapTbonBe*>(&p->program());
      if (be != nullptr && be->tbon() != nullptr) {
        storage.push_back(be->tbon()->topology().nodes().data());
      }
    }
  }
  ASSERT_EQ(storage.size(), 8u);
  for (const tbon::TopoNode* p : storage) EXPECT_EQ(p, storage.front());
  ASSERT_TRUE(tc.run_until([&] { return out.done; }));
  EXPECT_TRUE(out.status.is_ok()) << out.status.to_string();
}

TEST(JobsnapTbon, DetachReapsTbonDaemons) {
  TestCluster tc(4);
  JobsnapTbonBe::install(tc.machine);
  const cluster::Pid launcher = start_job(tc, 4, 2);
  JobsnapTbonOutcome out;
  cluster::SpawnOptions opts;
  opts.executable = "jobsnap_tfe";
  ASSERT_TRUE(tc.machine.front_end()
                  .spawn(std::make_unique<JobsnapTbonFe>(launcher, &out),
                         std::move(opts))
                  .is_ok());
  ASSERT_TRUE(tc.run_until([&] { return out.done; }));
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));
  int live = 0;
  for (int i = 0; i < tc.machine.num_compute_nodes(); ++i) {
    for (cluster::Process* p : tc.machine.compute_node(i).live_processes()) {
      if (p->options().executable == "jobsnap_tbe") ++live;
    }
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(tc.machine.find_process(launcher)->state(),
            cluster::ProcState::Running);
}

}  // namespace
}  // namespace lmon::tools::jobsnap
