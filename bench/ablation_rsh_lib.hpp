// ablation_rsh_lib.hpp - the launch-strategy ablation sweep (paper Figure 4)
// shared by bench_ablation_rsh and the bench-schema golden test.
//
// Every strategy is driven through the same surface - the FE API's
// launchAndSpawn with a comm::LaunchStrategy session option - so new
// strategies added to comm::kAllLaunchStrategies automatically join the
// ablation. Each measured point is paired with the per-strategy analytic
// model (core::PerfModel) and the residual between them; the sweep runs the
// cost model jitter-free so residuals compare expectation against
// expectation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/fe_api.hpp"
#include "core/perf_model.hpp"

namespace lmon::bench {

struct RshAblationOptions {
  /// Largest node count swept; the scale list is every canonical scale
  /// <= max_nodes (small scales are kept only when the cap is small, so the
  /// golden-schema test can run the identical code path at toy size).
  int max_nodes = 1024;
  int tasks_per_node = 1;
};

struct RshAblationPoint {
  std::string strategy;
  std::string topology;  ///< fabric spec (resolved arity)
  int nodes = 0;
  bool measured_ok = false;
  bool model_predicts_failure = false;
  double measured_s = -1.0;
  double model_s = -1.0;
  double residual_pct = 0.0;  ///< (model - measured) / measured * 100
};

struct RshAblationReport {
  int tasks_per_node = 1;
  std::vector<int> scales;
  std::vector<std::string> strategies;
  std::vector<RshAblationPoint> points;
  /// Model-solved crossovers (node counts; -1 = none in range).
  int tree_over_serial = -1;
  int rm_over_serial = -1;
  int rm_over_tree = -1;
  double max_abs_residual_pct = 0.0;
  /// Points where the model and the measurement disagree about *whether
  /// the launch completes at all* (e.g. serial-rsh succeeding past the
  /// fork limit, or tree-rsh failing where the model predicts success).
  /// These carry no residual, so they gate separately.
  int model_measured_disagreements = 0;
};

/// The fabric each strategy is swept over: tree-rsh at its natural modest
/// agent degree, everything else at the platform default (kary:0 resolves
/// to the RM's fan-out).
inline comm::TopologySpec ablation_topology(comm::LaunchStrategyKind kind) {
  if (kind == comm::LaunchStrategyKind::TreeRsh) {
    return comm::TopologySpec{comm::TopologyKind::KAry, 8};
  }
  return comm::TopologySpec{comm::TopologyKind::KAry, 0};
}

/// Full launchAndSpawn (timeline e0..e11) under `kind`; < 0 on failure.
inline double measure_launch_and_spawn(comm::LaunchStrategyKind kind,
                                       const comm::TopologySpec& topo,
                                       int nodes, int tpn) {
  // Jitter-free costs: the sweep compares the analytic expectation against
  // the simulated expectation, not against one noisy sample.
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  TestCluster tc(nodes, 0, costs);
  ScopedTrace trace(tc, nullptr, /*record=*/true);

  bool done = false;
  Status status;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    cfg.launch_strategy = kind;
    cfg.topology = topo;
    rm::JobSpec job{nodes, tpn, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status st) {
      status = st;
      done = true;
    });
  });
  tc.run_until([&] { return done; }, sim::seconds(3600));
  if (!done || !status.is_ok()) return -1.0;
  return sim::to_seconds(
      trace.tracer()->marks().between("e0_fe_call", "e11_return"));
}

inline RshAblationReport run_rsh_ablation(const RshAblationOptions& opts) {
  RshAblationReport report;
  report.tasks_per_node = opts.tasks_per_node;

  // Canonical scales; the paper's Figure 4 story needs >= 512 where the
  // serial baseline collapses. Tiny scales exist for smoke/golden runs.
  for (int n : {4, 8, 16, 64, 128, 256, 512, 1024}) {
    if (n > opts.max_nodes) continue;
    if (opts.max_nodes >= 64 && n < 64) continue;
    report.scales.push_back(n);
  }

  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  const core::PerfModel model(
      costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));

  for (comm::LaunchStrategyKind kind : comm::kAllLaunchStrategies) {
    report.strategies.emplace_back(comm::to_string(kind));
    const comm::TopologySpec topo = ablation_topology(kind);
    for (int n : report.scales) {
      RshAblationPoint pt;
      pt.strategy = std::string(comm::to_string(kind));
      pt.topology = topo.to_string();
      pt.nodes = n;
      pt.model_predicts_failure = model.predicts_failure(kind, n);
      if (!pt.model_predicts_failure) {
        pt.model_s = model.predict(kind, topo, n, opts.tasks_per_node).total();
      }
      pt.measured_s =
          measure_launch_and_spawn(kind, topo, n, opts.tasks_per_node);
      pt.measured_ok = pt.measured_s >= 0.0;
      if (pt.measured_ok && !pt.model_predicts_failure) {
        pt.residual_pct = (pt.model_s - pt.measured_s) / pt.measured_s * 100.0;
        report.max_abs_residual_pct = std::max(report.max_abs_residual_pct,
                                               std::abs(pt.residual_pct));
      } else if (pt.measured_ok == pt.model_predicts_failure) {
        report.model_measured_disagreements += 1;
      }
      report.points.push_back(std::move(pt));
    }
  }

  const comm::TopologySpec tree_topo =
      ablation_topology(comm::LaunchStrategyKind::TreeRsh);
  const comm::TopologySpec default_topo =
      ablation_topology(comm::LaunchStrategyKind::SerialRsh);
  constexpr int kMaxCross = 4096;
  report.tree_over_serial =
      model
          .crossover(comm::LaunchStrategyKind::TreeRsh,
                     comm::LaunchStrategyKind::SerialRsh, tree_topo,
                     opts.tasks_per_node, kMaxCross)
          .value_or(-1);
  report.rm_over_serial =
      model
          .crossover(comm::LaunchStrategyKind::RmBulk,
                     comm::LaunchStrategyKind::SerialRsh, default_topo,
                     opts.tasks_per_node, kMaxCross)
          .value_or(-1);
  report.rm_over_tree =
      model
          .crossover(comm::LaunchStrategyKind::RmBulk,
                     comm::LaunchStrategyKind::TreeRsh, tree_topo,
                     opts.tasks_per_node, kMaxCross)
          .value_or(-1);
  return report;
}

// --- JSON emission ------------------------------------------------------------
//
// Hand-rolled, deterministic key order: BENCH_*.json trajectory tooling
// diffs the shape of this output, so the emitter is the schema.

namespace jsonv {

inline std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace jsonv

inline std::string to_json(const RshAblationReport& r) {
  std::string out;
  out += "{\n";
  out += "  \"bench\": \"ablation_rsh\",\n";
  out += "  \"deterministic\": true,\n";
  out += "  \"tasks_per_node\": " + std::to_string(r.tasks_per_node) + ",\n";
  out += "  \"scales\": [";
  for (std::size_t i = 0; i < r.scales.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(r.scales[i]);
  }
  out += "],\n";
  out += "  \"strategies\": [";
  for (std::size_t i = 0; i < r.strategies.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + r.strategies[i] + "\"";
  }
  out += "],\n";
  out += "  \"points\": [\n";
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const RshAblationPoint& p = r.points[i];
    out += "    {\"strategy\": \"" + p.strategy + "\", \"topology\": \"" +
           p.topology + "\", \"nodes\": " + std::to_string(p.nodes) +
           ", \"measured_ok\": " + (p.measured_ok ? "true" : "false") +
           ", \"model_predicts_failure\": " +
           (p.model_predicts_failure ? "true" : "false") +
           ", \"measured_s\": " + jsonv::num(p.measured_s) +
           ", \"model_s\": " + jsonv::num(p.model_s) +
           ", \"residual_pct\": " + jsonv::num(p.residual_pct) + "}";
    if (i + 1 != r.points.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"crossovers\": {\"tree_over_serial\": " +
         std::to_string(r.tree_over_serial) +
         ", \"rm_over_serial\": " + std::to_string(r.rm_over_serial) +
         ", \"rm_over_tree\": " + std::to_string(r.rm_over_tree) + "},\n";
  out += "  \"max_abs_residual_pct\": " +
         jsonv::num(r.max_abs_residual_pct) + ",\n";
  out += "  \"model_measured_disagreements\": " +
         std::to_string(r.model_measured_disagreements) + "\n";
  out += "}\n";
  return out;
}

// --- JSON shape skeleton ------------------------------------------------------
//
// Reduces a JSON document to its structure: object keys stay, every scalar
// collapses to a type tag, and an array collapses to the set of distinct
// element shapes. The golden-schema test string-compares this skeleton, so
// renaming/dropping a key (or emitting a ragged row) fails ctest while
// mere value drift does not.

namespace jsonv {

struct ShapeParser {
  std::string_view s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  void skip_string() {
    ++i;  // opening quote
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    ++i;  // closing quote
  }
  std::string string_token() {
    const std::size_t begin = i + 1;
    skip_string();
    return std::string(s.substr(begin, i - 1 - begin));
  }
  std::string value() {
    ws();
    if (i >= s.size()) return "?";
    const char c = s[i];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      skip_string();
      return "str";
    }
    if (c == 't' || c == 'f') {
      i += c == 't' ? 4 : 5;
      return "bool";
    }
    if (c == 'n') {
      i += 4;
      return "null";
    }
    while (i < s.size() &&
           (s[i] == '-' || s[i] == '+' || s[i] == '.' || s[i] == 'e' ||
            s[i] == 'E' || (s[i] >= '0' && s[i] <= '9'))) {
      ++i;
    }
    return "num";
  }
  std::string object() {
    ++i;  // '{'
    std::string out = "{";
    bool first = true;
    while (true) {
      ws();
      if (i >= s.size() || s[i] == '}') break;
      if (!first) {
        if (s[i] == ',') ++i;
        ws();
        if (i >= s.size() || s[i] == '}') break;
      }
      const std::string key = string_token();
      ws();
      if (i < s.size() && s[i] == ':') ++i;
      if (!first) out += ",";
      out += key + ":" + value();
      first = false;
    }
    if (i < s.size()) ++i;  // '}'
    return out + "}";
  }
  std::string array() {
    ++i;  // '['
    std::vector<std::string> shapes;
    while (true) {
      ws();
      if (i >= s.size() || s[i] == ']') break;
      if (s[i] == ',') {
        ++i;
        continue;
      }
      std::string shape = value();
      if (std::find(shapes.begin(), shapes.end(), shape) == shapes.end()) {
        shapes.push_back(std::move(shape));
      }
    }
    if (i < s.size()) ++i;  // ']'
    std::string out = "[";
    for (std::size_t k = 0; k < shapes.size(); ++k) {
      if (k != 0) out += "|";
      out += shapes[k];
    }
    return out + "]";
  }
};

}  // namespace jsonv

/// Canonical structural skeleton of `json` (see above).
inline std::string json_shape(std::string_view json) {
  jsonv::ShapeParser p{json};
  return p.value();
}

}  // namespace lmon::bench
