// bench_fig3_launchspawn - reproduces paper Figure 3:
// "Modeled vs Measured Performance" of launchAndSpawn, 16..128 tool daemons
// (8 MPI tasks per daemon), with the per-region cost breakdown:
//   Region A: T(job), T(daemon)+T(setup), T(collective), tracing cost
//   Region B: RPDTAB fetching   Region C: handshaking   + other LaunchMON.
//
// Paper anchors: total < 1 s at 128 nodes (1024 tasks); LaunchMON's own
// share ~5.2%; tracing cost 18 ms and "other" 12 ms at any scale.
// A second table validates *every* launch strategy against its own model
// (core::PerfModel's per-strategy family), not just the rm-bulk default.
#include <cstdio>
#include <memory>
#include <optional>

#include "bench/ablation_rsh_lib.hpp"
#include "bench/bench_util.hpp"
#include "core/fe_api.hpp"
#include "core/perf_model.hpp"
#include "obs/critical_path.hpp"

namespace lmon {
namespace {

/// One measured launchAndSpawn split into the paper's regions; nullopt when
/// the launch failed.
std::optional<obs::RegionBreakdown> run_once(int ndaemons, int tpn) {
  bench::TestCluster tc(ndaemons);
  bench::ScopedTrace trace(tc, nullptr, /*record=*/true);

  bool done = false;
  Status status;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{ndaemons, tpn, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status st) {
      status = st;
      done = true;
    });
  });
  tc.run_until([&] { return done; }, sim::seconds(600));
  if (!done || !status.is_ok()) return std::nullopt;
  return obs::extract_regions(*trace.tracer());
}

}  // namespace
}  // namespace lmon

int main(int argc, char** argv) {
  using namespace lmon;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& arg : args) {
    if (!bench::common_flag(arg)) {
      std::fprintf(stderr, "usage: %s [--trace-out=PATH]\n", argv[0]);
      return 2;
    }
  }
  bench::set_trace_out(args);
  bench::print_title(
      "Figure 3: launchAndSpawn modeled vs measured (8 MPI tasks/daemon)");
  std::printf(
      "%8s %6s | %9s %9s | %8s %8s %8s %8s %8s %8s %8s %8s | %7s\n",
      "daemons", "tasks", "measured", "model", "T(job)", "T(dmn)", "T(setup)",
      "T(coll)", "tracing", "rpdtab", "handshk", "other", "lmon%");

  const cluster::CostModel costs;
  const auto fanout = static_cast<std::uint32_t>(costs.rm_launch_fanout);
  const core::PerfModel model(costs, fanout);
  const int tpn = 8;
  for (int n : bench::scales({16, 32, 48, 64, 80, 96, 112, 128}, {16})) {
    const std::optional<obs::RegionBreakdown> m = run_once(n, tpn);
    const auto p = model.predict(
        comm::LaunchStrategyKind::RmBulk,
        comm::TopologySpec{comm::TopologyKind::KAry, fanout}, n, tpn);
    if (!m) {
      std::printf("%8d %6d | launch failed\n", n, n * tpn);
      continue;
    }
    std::printf(
        "%8d %6d | %8.3fs %8.3fs | %7.3fs %7.3fs %7.3fs %7.3fs %7.3fs "
        "%7.3fs %7.3fs %7.3fs | %6.1f%%\n",
        n, n * tpn, m->total, p.total(), m->t_job, m->t_daemon, m->t_setup,
        m->t_collective, m->tracing, m->rpdtab, m->handshake, m->other,
        m->lmon_overhead() / m->total * 100.0);
  }
  std::printf(
      "\npaper anchors: <1 s total at 128 daemons/1024 tasks; tracing 18 ms "
      "and other 12 ms scale-independent;\nLaunchMON share ~5%% of total.\n");

  // --- per-strategy model validation (jitter-free) ---------------------------
  bench::print_title(
      "launchAndSpawn per launch strategy: modeled vs measured");
  std::printf("%10s %9s %8s | %9s %9s %9s\n", "strategy", "fabric",
              "daemons", "measured", "model", "residual");
  const cluster::CostModel det = costs.deterministic();
  const core::PerfModel det_model(
      det, static_cast<std::uint32_t>(det.rm_launch_fanout));
  for (comm::LaunchStrategyKind kind : comm::kAllLaunchStrategies) {
    const comm::TopologySpec topo = bench::ablation_topology(kind);
    for (int n : bench::scales({16, 48, 96}, {8})) {
      const double measured =
          bench::measure_launch_and_spawn(kind, topo, n, tpn);
      const double predicted = det_model.predict(kind, topo, n, tpn).total();
      std::printf("%10s %9s %8d |", std::string(comm::to_string(kind)).c_str(),
                  topo.to_string().c_str(), n);
      if (measured < 0) {
        std::printf(" %8s", "FAIL");
      } else {
        std::printf(" %8.3fs", measured);
      }
      std::printf(" %8.3fs", predicted);
      if (measured > 0) {
        std::printf(" %8.1f%%\n", (predicted - measured) / measured * 100.0);
      } else {
        std::printf(" %9s\n", "-");
      }
    }
  }
  std::printf(
      "\nthe per-strategy family shares every calibration constant; only "
      "T(daemon) is strategy-specific.\n");
  return 0;
}
