// stat_attach.hpp - "time to first stack trace" with STAT, closed loop.
//
// Each operation attaches STAT in LaunchMON mode to a running 256 x 8 job
// on a fresh cluster seeded seed+i, stands up a 2-deep TBON through 16
// middleware daemons, and samples once. Booting the cluster and starting
// the job are set-up. Latency is StatFe start -> merged tree, split into
// attach (attachAndSpawn), connect (TBON wired) and merge (sample fan-in).
#pragma once

#include "tbon/comm_node.hpp"
#include "tools/stat/stat_be.hpp"
#include "tools/stat/stat_fe.hpp"
#include "workloads/common.hpp"

namespace lmon::benchmark {

namespace stat_detail {

/// Starts the job without a tool and runs until every task is up. Returns
/// the launcher pid.
inline cluster::Pid start_job(Cluster& cl, int nodes, int tasks_per_node) {
  const std::vector<int> before = live_counts(cl.machine);
  auto res = rm::run_job(cl.machine,
                         rm::JobSpec{nodes, tasks_per_node, "mpi_app", {}});
  if (!res.is_ok()) {
    throw std::runtime_error("stat_attach: job start: " + res.status.to_string());
  }
  auto up = [&] {
    for (int n = 0; n < nodes; ++n) {
      const cluster::NodeId id = cl.machine.compute_node(n).id();
      if (cl.machine.node(id).live_process_count() <
          before[static_cast<std::size_t>(id)] + tasks_per_node) {
        return false;
      }
    }
    return true;
  };
  // Simulator::run(until) does not advance the clock past the last event it
  // ran, so step an absolute horizon.
  for (sim::Time t = cl.sim.now(), end = t + sim::seconds(30);
       t < end && !up();) {
    t += sim::ms(100);
    cl.sim.run(t);
  }
  if (!up()) throw std::runtime_error("stat_attach: job tasks did not start");
  return res.value;
}

/// Duration of the tbon.bootstrap span of the TBON root, which lives in
/// the STAT front end on the login node (0 when absent).
inline double root_bootstrap_s(const obs::Tracer& tracer,
                               cluster::NodeId login_node) {
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name == "tbon.bootstrap" && s.node == login_node) {
      return sim::to_seconds(s.duration());
    }
  }
  return 0;
}

}  // namespace stat_detail

inline PassResult run_stat_attach(const Params& p) {
  const int daemons = p.smoke ? 16 : 256;
  const int comm_nodes = p.smoke ? 4 : 16;
  const int tasks_per_daemon = 8;

  PassResult r;
  std::map<std::string, std::vector<double>> per_run;
  for (int i = 0; i < p.ops; ++i) {
    const std::string what = "STAT run " + std::to_string(i);
    const auto t_setup = HostClock::now();
    auto cl = std::make_unique<Cluster>(daemons, comm_nodes,
                                        p.seed + static_cast<std::uint64_t>(i));
    tools::stat::StatBe::install(cl->machine);
    tbon::LmonCommNode::install(cl->machine);
    const cluster::Pid launcher =
        stat_detail::start_job(*cl, daemons, tasks_per_daemon);
    HostSample setup{seconds_since(t_setup), 0};

    {
      Instruments inst(*cl, r, p.traced, i == 0 ? p.trace_out : "");
      const Stopwatch watch;
      TimedPhase timed(r);
      timed.start(cl->sim);
      r.attempted += 1;

      tools::stat::StatConfig cfg;
      cfg.mode = tools::stat::StartupMode::LaunchMon;
      cfg.launcher_pid = launcher;
      cfg.n_comm_nodes = comm_nodes;
      cfg.tbon_fanout = p.smoke ? 4 : 16;
      cfg.take_sample = true;
      tools::stat::StatOutcome out;
      cluster::SpawnOptions opts;
      opts.executable = "stat_fe";
      opts.image_mb = 12.0;
      auto res = cl->machine.front_end().spawn(
          std::make_unique<tools::stat::StatFe>(std::move(cfg), &out),
          std::move(opts));
      const bool done =
          res.is_ok() && run_until(cl->sim, [&] { return out.done; },
                                   sim::seconds(600),
                                   p.traced ? &r.probe : nullptr);
      timed.stop(cl->sim);
      HostSample op = watch.stop();
      op.host *= 1e3;
      r.windows.push_back(op);
      setup.kernel_ms = op.kernel_ms;

      const bool ok = done && out.status.is_ok() && out.tree.has_value();
      if (!ok) {
        r.failed += 1;
      } else {
        const std::size_t tasks = static_cast<std::size_t>(daemons) *
                                  static_cast<std::size_t>(tasks_per_daemon);
        if (out.tree->all_ranks().size() != tasks) {
          r.error(what + ": merged tree covers " +
                  std::to_string(out.tree->all_ranks().size()) + " of " +
                  std::to_string(tasks) + " tasks");
        }
        const double sample_s = sim::to_seconds(out.t_sampled - out.t_start);
        const double attach_s =
            sim::to_seconds(out.t_daemons_launched - out.t_start);
        const double connect_s =
            sim::to_seconds(out.t_tree_connected - out.t_daemons_launched);
        const double merge_s =
            sim::to_seconds(out.t_sampled - out.t_tree_connected);
        if (std::abs(attach_s + connect_s + merge_s - sample_s) >
            0.01 * sample_s) {
          r.error(what + ": attach + connect + merge != sample latency");
        }
        r.latency_ms.push_back(sample_s * 1e3);
        per_run["stat.attach_s"].push_back(attach_s);
        per_run["stat.connect_s"].push_back(connect_s);
        per_run["stat.merge_s"].push_back(merge_s);
        if (obs::Tracer* tracer = inst.tracer(); tracer != nullptr) {
          per_run["tbon.bootstrap_s"].push_back(stat_detail::root_bootstrap_s(
              *tracer, cl->machine.front_end().id()));
        }
      }
    }

    const auto t_down = HostClock::now();
    cl.reset();
    setup.host += seconds_since(t_down);
    r.setups.push_back(setup);
  }

  for (auto& [name, values] : per_run) r.layers[name] = median(values);
  if (p.traced && r.metrics.counter("tbon.rounds_reduced") <= 0) {
    r.error("no TBON filter reduced a round (tbon.rounds_reduced == 0)");
  }
  return r;
}

}  // namespace lmon::benchmark
