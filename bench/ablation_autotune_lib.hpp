// ablation_autotune_lib.hpp - the self-tuning-session ablation shared by
// bench_ablation_autotune and the bench-schema golden test.
//
// The question this sweep answers: does a session that leaves every knob
// unset (strategy, fabric topology, rendezvous threshold - the engine's
// auto-tuner picks all three from the platform's calibration profile) match
// the best configuration a careful human could have hand-picked from the
// full grid? Per (platform x scale x tasks-per-node) point it:
//
//   1. measures one real auto-tuned session (SpawnConfig all-default plus
//      the platform profile name) end to end (timeline e0..e11);
//   2. model-selects the best hand-picked config from the explicit grid
//      (strategy x topology x threshold, skipping predicted failures) and
//      measures that config for real through the same FE surface;
//   3. gates that auto matches or beats the hand-picked best within a small
//      tolerance, that the tuner's predicted total lands within 15% of the
//      measured session, and that the tuner never selected a strategy whose
//      model predicts failure.
//
// The machine is built *from the platform profile's own cost model*
// (jitter-free), so the tuner's model and the simulated reality agree by
// construction - exactly the regime a correctly calibrated deployment runs
// in. tasks-per-node is the payload axis: the handshake broadcasts the
// RPDTAB, whose size scales with n x tpn, which is what the threshold
// decision acts on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/ablation_rsh_lib.hpp"  // jsonv helpers + json_shape
#include "bench/bench_util.hpp"
#include "cluster/cost_model_registry.hpp"
#include "core/auto_tune.hpp"
#include "core/fe_api.hpp"
#include "core/perf_model.hpp"

namespace lmon::bench {

struct AutotuneAblationOptions {
  std::vector<int> scales = {64, 256, 512};
  /// Registry profile names; the machine runs the profile's cost model.
  std::vector<std::string> platforms = {"atlas", "thunder", "zeus",
                                        "bluegene"};
  /// Payload axis: the handshake RPDTAB scales with nodes x tpn.
  std::vector<int> tasks_per_node = {1, 16};
  /// Auto must land within this of the measured hand-picked best.
  double tolerance_pct = 5.0;

  static AutotuneAblationOptions smoke() {
    AutotuneAblationOptions o;
    o.scales = {8, 16};
    o.platforms = {"atlas", "bluegene"};
    o.tasks_per_node = {1, 8};
    return o;
  }
};

/// One hand-picked candidate: every knob explicit.
struct HandPick {
  comm::LaunchStrategyKind strategy = comm::LaunchStrategyKind::RmBulk;
  comm::TopologySpec topology{comm::TopologyKind::KAry, 0};
  core::RndvSetting rndv;
};

struct AutotunePoint {
  std::string platform;
  int nodes = 0;
  int tasks_per_node = 0;
  // The auto-tuned session and what the tuner chose.
  bool auto_ok = false;
  double auto_s = -1.0;
  std::string auto_strategy;
  std::string auto_topology;
  std::uint32_t auto_rndv_threshold = 0;
  double predicted_s = -1.0;
  double residual_pct = 0.0;  ///< (predicted - auto_s) / auto_s * 100
  bool predicted_failure_selected = false;
  // The measured best hand-picked config (model-selected from the grid).
  bool best_ok = false;
  double best_s = -1.0;
  std::string best_strategy;
  std::string best_topology;
  std::string best_rndv;
  double auto_vs_best_pct = 0.0;  ///< (auto_s - best_s) / best_s * 100
};

struct AutotuneAblationReport {
  double tolerance_pct = 0.0;
  std::vector<int> scales;
  std::vector<std::string> platforms;
  std::vector<int> tasks_per_node;
  std::vector<AutotunePoint> points;
  double max_auto_vs_best_pct =
      -std::numeric_limits<double>::infinity();
  double max_abs_residual_pct = 0.0;
  int predicted_failure_selections = 0;
  int measurement_failures = 0;
  bool auto_matches_or_beats_everywhere = false;
};

/// The explicit grid a careful human would sweep by hand: every strategy,
/// the canonical fabric shapes (kary:0 resolves to the profile's RM
/// fan-out), and the three threshold pins.
inline std::vector<HandPick> hand_grid() {
  using K = comm::TopologyKind;
  using M = core::RndvSetting::Mode;
  std::vector<HandPick> grid;
  const std::vector<comm::TopologySpec> topologies = {
      {K::KAry, 0}, {K::KAry, 2}, {K::KAry, 8},
      {K::Binomial, 0}, {K::Flat, 0}};
  const std::vector<core::RndvSetting> rndvs = {
      {M::AlwaysEager, 0}, {M::AlwaysRndv, 0}, {M::PlatformDefault, 0}};
  for (const comm::LaunchStrategyKind s : comm::kAllLaunchStrategies) {
    for (const auto& t : topologies) {
      for (const auto& r : rndvs) {
        grid.push_back({s, t, r});
      }
    }
  }
  return grid;
}

/// Threshold a pinned RndvSetting resolves to under `costs` (mirrors the
/// engine-side resolution for the grid's three explicit modes).
inline std::uint32_t resolve_rndv(const core::RndvSetting& r,
                                  const cluster::CostModel& costs) {
  switch (r.mode) {
    case core::RndvSetting::Mode::AlwaysEager:
      return std::numeric_limits<std::uint32_t>::max();
    case core::RndvSetting::Mode::AlwaysRndv:
      return 1;
    case core::RndvSetting::Mode::Bytes:
      return r.bytes;
    default:
      return costs.iccl_rndv_threshold_bytes;
  }
}

/// Full launchAndSpawn (timeline e0..e11) on a machine running `costs`.
/// `pick` nullptr = auto-tuned session (all knobs unset); `tuned_out`
/// receives the engine's decision record when non-null. < 0 on failure.
inline double measure_autotune_session(const cluster::CostModel& costs,
                                       const std::string& platform, int nodes,
                                       int tpn, const HandPick* pick,
                                       core::TunedConfig* tuned_out) {
  TestCluster tc(nodes, 0, costs);
  ScopedTrace trace(tc, nullptr, /*record=*/true);

  bool done = false;
  Status status;
  std::shared_ptr<core::FrontEnd> fe;
  int sid_out = -1;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    sid_out = sid.value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    cfg.platform_profile = platform;
    if (pick != nullptr) {
      cfg.launch_strategy = pick->strategy;
      cfg.topology = pick->topology;
      cfg.rndv = pick->rndv;
    }
    rm::JobSpec job{nodes, tpn, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status st) {
      status = st;
      done = true;
    });
  });
  tc.run_until([&] { return done; }, sim::seconds(3600));
  if (!done || !status.is_ok()) return -1.0;
  if (tuned_out != nullptr) {
    if (const core::TunedConfig* t = fe->tuned_config(sid_out)) {
      *tuned_out = *t;
    }
  }
  return sim::to_seconds(
      trace.tracer()->marks().between("e0_fe_call", "e11_return"));
}

inline AutotuneAblationReport run_autotune_ablation(
    const AutotuneAblationOptions& opts) {
  AutotuneAblationReport report;
  report.tolerance_pct = opts.tolerance_pct;
  report.scales = opts.scales;
  report.platforms = opts.platforms;
  report.tasks_per_node = opts.tasks_per_node;
  report.auto_matches_or_beats_everywhere = true;
  const std::vector<HandPick> grid = hand_grid();

  for (const std::string& platform : opts.platforms) {
    const auto profile =
        cluster::CostModelRegistry::builtin().find(platform);
    if (!profile) continue;
    // Jitter-free machine running the profile's own constants: model
    // decisions and simulated reality agree by construction.
    const cluster::CostModel costs = profile->deterministic();
    const core::PerfModel model(
        costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
    for (const int n : opts.scales) {
      for (const int tpn : opts.tasks_per_node) {
        AutotunePoint pt;
        pt.platform = platform;
        pt.nodes = n;
        pt.tasks_per_node = tpn;

        // The auto-tuned session (knobs unset; the engine decides).
        core::TunedConfig tuned;
        pt.auto_s = measure_autotune_session(costs, platform, n, tpn,
                                             nullptr, &tuned);
        pt.auto_ok = pt.auto_s >= 0.0;
        pt.auto_strategy = std::string(comm::to_string(tuned.strategy));
        pt.auto_topology = tuned.topology.to_string();
        pt.auto_rndv_threshold = tuned.rndv_threshold;
        pt.predicted_s = tuned.predicted_total_s;
        pt.predicted_failure_selected =
            model.predicts_failure(tuned.strategy, n);
        if (pt.predicted_failure_selected) {
          report.predicted_failure_selections += 1;
        }
        if (pt.auto_ok && pt.auto_s > 0.0) {
          pt.residual_pct =
              (pt.predicted_s - pt.auto_s) / pt.auto_s * 100.0;
          report.max_abs_residual_pct = std::max(
              report.max_abs_residual_pct, std::abs(pt.residual_pct));
        } else {
          report.measurement_failures += 1;
        }

        // Model-select the best hand-picked config, then measure it. The
        // grid is what a human would actually sweep; measuring only the
        // winner keeps the bench tractable while the model's per-point
        // fidelity is gated separately (residual_pct above and the
        // rsh/iccl ablations).
        const HandPick* best_pick = nullptr;
        double best_model = 0.0;
        for (const HandPick& hp : grid) {
          if (model.predicts_failure(hp.strategy, n)) continue;
          const double total =
              model
                  .predict(hp.strategy, hp.topology, n, tpn,
                           resolve_rndv(hp.rndv, costs))
                  .total();
          if (best_pick == nullptr || total < best_model) {
            best_pick = &hp;
            best_model = total;
          }
        }
        if (best_pick != nullptr) {
          pt.best_s = measure_autotune_session(costs, platform, n, tpn,
                                               best_pick, nullptr);
          pt.best_ok = pt.best_s >= 0.0;
          pt.best_strategy =
              std::string(comm::to_string(best_pick->strategy));
          pt.best_topology = best_pick->topology.to_string();
          pt.best_rndv = best_pick->rndv.to_string();
        }
        if (!pt.best_ok) report.measurement_failures += 1;
        if (pt.auto_ok && pt.best_ok && pt.best_s > 0.0) {
          pt.auto_vs_best_pct =
              (pt.auto_s - pt.best_s) / pt.best_s * 100.0;
          report.max_auto_vs_best_pct = std::max(
              report.max_auto_vs_best_pct, pt.auto_vs_best_pct);
          if (pt.auto_vs_best_pct > opts.tolerance_pct) {
            report.auto_matches_or_beats_everywhere = false;
          }
        } else {
          report.auto_matches_or_beats_everywhere = false;
        }
        report.points.push_back(std::move(pt));
      }
    }
  }
  if (report.points.empty()) {
    report.auto_matches_or_beats_everywhere = false;
    report.max_auto_vs_best_pct = 0.0;
  }
  if (report.max_auto_vs_best_pct ==
      -std::numeric_limits<double>::infinity()) {
    report.max_auto_vs_best_pct = 0.0;
  }
  return report;
}

// --- JSON emission (deterministic key order; the emitter is the schema) ------

inline std::string to_json(const AutotuneAblationReport& r) {
  std::string out;
  out += "{\n";
  out += "  \"bench\": \"ablation_autotune\",\n";
  out += "  \"deterministic\": true,\n";
  out += "  \"tolerance_pct\": " + jsonv::num(r.tolerance_pct) + ",\n";
  out += "  \"scales\": [";
  for (std::size_t i = 0; i < r.scales.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(r.scales[i]);
  }
  out += "],\n";
  out += "  \"platforms\": [";
  for (std::size_t i = 0; i < r.platforms.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + r.platforms[i] + "\"";
  }
  out += "],\n";
  out += "  \"tasks_per_node\": [";
  for (std::size_t i = 0; i < r.tasks_per_node.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(r.tasks_per_node[i]);
  }
  out += "],\n";
  out += "  \"points\": [\n";
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const AutotunePoint& p = r.points[i];
    out += "    {\"platform\": \"" + p.platform +
           "\", \"nodes\": " + std::to_string(p.nodes) +
           ", \"tasks_per_node\": " + std::to_string(p.tasks_per_node) +
           ", \"auto_ok\": " + (p.auto_ok ? "true" : "false") +
           ", \"auto_s\": " + jsonv::num(p.auto_s) +
           ", \"auto_strategy\": \"" + p.auto_strategy +
           "\", \"auto_topology\": \"" + p.auto_topology +
           "\", \"auto_rndv_threshold\": " +
           std::to_string(p.auto_rndv_threshold) +
           ", \"predicted_s\": " + jsonv::num(p.predicted_s) +
           ", \"residual_pct\": " + jsonv::num(p.residual_pct) +
           ", \"predicted_failure_selected\": " +
           (p.predicted_failure_selected ? "true" : "false") +
           ", \"best_ok\": " + (p.best_ok ? "true" : "false") +
           ", \"best_s\": " + jsonv::num(p.best_s) +
           ", \"best_strategy\": \"" + p.best_strategy +
           "\", \"best_topology\": \"" + p.best_topology +
           "\", \"best_rndv\": \"" + p.best_rndv +
           "\", \"auto_vs_best_pct\": " + jsonv::num(p.auto_vs_best_pct) +
           "}";
    if (i + 1 != r.points.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"max_auto_vs_best_pct\": " +
         jsonv::num(r.max_auto_vs_best_pct) + ",\n";
  out += "  \"max_abs_residual_pct\": " +
         jsonv::num(r.max_abs_residual_pct) + ",\n";
  out += "  \"predicted_failure_selections\": " +
         std::to_string(r.predicted_failure_selections) + ",\n";
  out += "  \"measurement_failures\": " +
         std::to_string(r.measurement_failures) + ",\n";
  out += "  \"auto_matches_or_beats_everywhere\": " +
         std::string(r.auto_matches_or_beats_everywhere ? "true" : "false") +
         "\n";
  out += "}\n";
  return out;
}

}  // namespace lmon::bench
