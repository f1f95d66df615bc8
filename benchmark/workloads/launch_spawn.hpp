// launch_spawn.hpp - the paper's headline operation, closed loop.
//
// Each operation is one cold launchAndSpawn of `hello_be` under a fresh
// job on a fresh cluster seeded seed+i, followed by kill and a teardown
// check. Cluster boot and destruction are set-up; the timed operation runs
// from the FE call through the kill's completion. Latency is FE call ->
// Ready on the simulated clock.
#pragma once

#include "obs/critical_path.hpp"
#include "workloads/common.hpp"

namespace lmon::benchmark {

namespace launch_spawn_detail {

using State = core::FrontEnd::SessionState;

struct Launch {
  bool ok = false;
  double latency_ms = 0;
  std::map<State, double> host_in_state;  ///< traced passes only
};

/// One timed launch + kill on a booted cluster whose FE session is `sid`.
inline Launch launch_and_kill(Cluster& cl, cluster::Process& fe_proc,
                              core::FrontEnd& fe, int sid, int daemons,
                              int tasks_per_daemon, const std::string& what,
                              PassResult& r, StepProbe* probe) {
  Launch out;
  const std::vector<int> before = live_counts(cl.machine);
  sim::Time issued = -1;
  sim::Time ready_at = -1;
  Status launch_st;
  fe_proc.post(0, [&] {
    issued = cl.sim.now();
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    fe.launch_and_spawn(
        sid, rm::JobSpec{daemons, tasks_per_daemon, "mpi_app", {}}, cfg,
        [&](Status st) {
          launch_st = st;
          ready_at = cl.sim.now();
        });
  });
  // Traced passes also split the operation's host time by FE state.
  auto last_poll = StepClock::now();
  const bool launched = run_until(
      cl.sim,
      [&] {
        if (probe != nullptr) {
          const auto now = StepClock::now();
          out.host_in_state[fe.state(sid)] +=
              std::chrono::duration<double>(now - last_poll).count();
          last_poll = now;
        }
        return ready_at >= 0;
      },
      sim::seconds(600), probe);
  if (!launched || !launch_st.is_ok()) return out;

  const core::Rpdtab* pt = fe.proctable(sid);
  const core::Rpdtab* dt = fe.daemon_table(sid);
  const std::size_t tasks =
      static_cast<std::size_t>(daemons) * static_cast<std::size_t>(tasks_per_daemon);
  if (pt == nullptr || pt->size() != tasks) {
    r.error(what + ": proctable has " + std::to_string(pt ? pt->size() : 0) +
            " entries, expected " + std::to_string(tasks));
  }
  if (dt == nullptr || dt->size() != static_cast<std::size_t>(daemons)) {
    r.error(what + ": daemon table has " +
            std::to_string(dt ? dt->size() : 0) + " entries");
  }

  bool killed = false;
  Status kill_st;
  fe_proc.post(0, [&] {
    fe.kill(sid, [&](Status st) {
      kill_st = st;
      killed = true;
    });
  });
  if (!run_until(cl.sim, [&] { return killed; }, sim::seconds(60), probe) ||
      !kill_st.is_ok()) {
    return out;
  }
  // Kill requests are still in flight when the FE hears back; give the
  // nodes up to 10 s of simulated time to reap, checking every 10 ms.
  bool clean = live_counts(cl.machine) == before;
  for (sim::Time t = cl.sim.now(), end = t + sim::seconds(10);
       !clean && t < end;) {
    t += sim::ms(10);
    cl.sim.run(t);
    clean = live_counts(cl.machine) == before;
  }
  if (!clean) r.error(what + ": processes left alive after kill");
  out.ok = true;
  out.latency_ms = sim::to_ms(ready_at - issued);
  return out;
}

}  // namespace launch_spawn_detail

inline PassResult run_launch_spawn(const Params& p) {
  using launch_spawn_detail::State;
  const int daemons = p.smoke ? 16 : 512;
  const int tasks_per_daemon = 8;

  PassResult r;
  std::map<std::string, std::vector<double>> per_launch;
  for (int i = 0; i < p.ops; ++i) {
    const std::string what = "launch " + std::to_string(i);
    auto t_setup = HostClock::now();
    auto cl = std::make_unique<Cluster>(daemons, 0,
                                        p.seed + static_cast<std::uint64_t>(i));
    std::unique_ptr<core::FrontEnd> fe;
    int sid = -1;
    cluster::Process& fe_proc = cl->spawn_fe([&](cluster::Process& self) {
      fe = std::make_unique<core::FrontEnd>(self);
      if (fe->init().is_ok()) sid = fe->create_session().value;
    });
    if (!run_until(cl->sim, [&] { return fe != nullptr; }, sim::seconds(1)) ||
        sid < 0) {
      throw std::runtime_error("launch_spawn: front end did not start");
    }
    HostSample setup{seconds_since(t_setup), 0};

    {
      Instruments inst(*cl, r, p.traced, i == 0 ? p.trace_out : "");
      const Stopwatch watch;
      TimedPhase timed(r);
      timed.start(cl->sim);
      r.attempted += 1;
      const launch_spawn_detail::Launch l = launch_spawn_detail::launch_and_kill(
          *cl, fe_proc, *fe, sid, daemons, tasks_per_daemon, what, r,
          p.traced ? &r.probe : nullptr);
      timed.stop(cl->sim);
      HostSample op = watch.stop();
      op.host *= 1e3;
      r.windows.push_back(op);
      setup.kernel_ms = op.kernel_ms;
      if (l.ok) {
        r.latency_ms.push_back(l.latency_ms);
      } else {
        r.failed += 1;
      }

      if (obs::Tracer* tracer = inst.tracer(); tracer != nullptr && l.ok) {
        // The paper's region split does not cover the whole launch (engine
        // and MPIR steps between the RM phases are not a region), so the
        // rest is reported as its own part and the parts add up exactly.
        const obs::RegionBreakdown rb = obs::extract_regions(*tracer);
        const double launch_s = l.latency_ms / 1e3;
        if (std::abs(rb.total - launch_s) > 0.01 * launch_s) {
          r.error(what + ": the trace's e0..e11 span is " +
                  std::to_string(rb.total) + " s, the launch took " +
                  std::to_string(launch_s) + " s");
        }
        const std::pair<const char*, double> parts[] = {
            {"rm.job_s", rb.t_job},
            {"rm.daemon_s", rb.t_daemon},
            {"comm.setup_s", rb.t_setup},
            {"iccl.handshake_s", rb.t_collective},
            {"engine.tracing_s", rb.tracing},
            {"engine.rpdtab_s", rb.rpdtab},
            {"engine.other_s", rb.other},
            {"fe.handshake_s", rb.handshake}};
        double sum = 0;
        for (const auto& [name, v] : parts) {
          per_launch[name].push_back(v);
          sum += v;
        }
        per_launch["launch.unattributed_s"].push_back(launch_s - sum);
        auto host_in = [&](State s) {
          auto it = l.host_in_state.find(s);
          return it == l.host_in_state.end() ? 0.0 : it->second;
        };
        per_launch["fe.engine_starting_host_s"].push_back(
            host_in(State::EngineStarting));
        per_launch["fe.spawning_host_s"].push_back(host_in(State::Spawning));
        per_launch["fe.handshaking_host_s"].push_back(
            host_in(State::Handshaking));
      }
    }

    const auto t_down = HostClock::now();
    fe.reset();
    cl.reset();
    setup.host += seconds_since(t_down);
    r.setups.push_back(setup);
  }

  for (auto& [name, values] : per_launch) r.layers[name] = median(values);
  if (p.traced && r.metrics.counter("rm.tree_launch.requests") <= 0) {
    r.error("the RM tree launch never ran (rm.tree_launch.requests == 0)");
  }
  return r;
}

}  // namespace lmon::benchmark
