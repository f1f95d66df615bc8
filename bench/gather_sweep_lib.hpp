// gather_sweep_lib.hpp - the ICCL eager/rendezvous *gather* sweep embedded
// in the fig5 (jobsnap) and fig6 (STAT) benches.
//
// Jobsnap and STAT are upstream-dominated tools: the payload that matters
// is what the back ends send toward the root, not what the root fans out.
// This sweep measures fleet-wide gather latency (root's go signal to the
// root delivering the sorted contributions) for payload x topology x
// protocol, pins every point against core::PerfModel::collective_gather(),
// and compares the measured eager->rendezvous crossover against the
// analytic collective_gather_crossover() solver. Protocols are forced
// through the real session option (SpawnConfig::rndv), so the sweep drives
// the identical upstream path the tools use.
//
// Payload-grid constraint: points must be <= one chunk (64 KiB) or an
// exact multiple of it. The model replays chunk-cursor ties exactly only
// when every in-flight chunk is the same size; a ragged tail chunk makes
// interior-node enqueue ties placement-dependent and the residual gate
// meaningless. The crossover interpolation therefore uses the coarse grid
// (reported, not gated), unlike the bcast ablation's segment refinement.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/ablation_iccl_lib.hpp"  // crossover interpolation, gap_ns
#include "bench/bench_util.hpp"
#include "core/be_api.hpp"
#include "core/fe_api.hpp"
#include "core/perf_model.hpp"

namespace lmon::bench {

struct GatherSweepOptions {
  int nodes = 32;
  /// Per-rank contribution sizes (bytes), ascending; every point <= chunk
  /// or a whole multiple of it (see the header comment).
  std::vector<std::size_t> payloads = {1u << 10, 8u << 10, 64u << 10,
                                       256u << 10, 1u << 20};
  std::vector<comm::TopologySpec> topologies = {
      {comm::TopologyKind::KAry, 4},
      {comm::TopologyKind::Binomial, 0},
      {comm::TopologyKind::Flat, 0}};

  /// Toy scale for smoke runs and the golden-schema test. Keeps 1 MiB as
  /// the top payload: on a flat 8-node fabric the rendezvous handshake only
  /// amortizes around there, and the wins-at-max gate must stay meaningful.
  [[nodiscard]] GatherSweepOptions smoke() const {
    GatherSweepOptions o = *this;
    o.nodes = 8;
    o.payloads = {1u << 10, 64u << 10, 1u << 20};
    if (o.topologies.size() > 2) {
      o.topologies = {o.topologies.front(), o.topologies.back()};
    }
    return o;
  }
};

struct GatherSweepPoint {
  std::string topology;
  std::string protocol;  ///< "eager" | "rendezvous"
  std::size_t payload_bytes = 0;
  bool measured_ok = false;
  double measured_s = -1.0;
  double model_s = -1.0;
  double residual_pct = 0.0;  ///< (model - measured) / measured * 100
};

struct GatherCrossoverPoint {
  std::string topology;
  /// Coarse-grid interpolation of where measured rendezvous overtakes
  /// measured eager (-1: rendezvous never wins on the grid).
  double measured_bytes = -1.0;
  /// PerfModel::collective_gather_crossover() (-1: never in range).
  double model_bytes = -1.0;
  double agreement_pct = 0.0;  ///< informational, not gated (coarse grid)
  /// Rendezvous beat eager at the largest swept payload on this topology.
  bool rendezvous_wins_at_max = false;
};

struct GatherSweepReport {
  int nodes = 0;
  std::uint32_t chunk_bytes = 0;
  std::vector<std::size_t> payloads;
  std::vector<std::string> topologies;
  std::vector<std::string> protocols;
  std::vector<GatherSweepPoint> points;
  std::vector<GatherCrossoverPoint> crossovers;
  double max_abs_residual_pct = 0.0;
  /// Largest |model - measured| over the measured points, in whole ns.
  long long max_abs_gap_ns = 0;
  bool rendezvous_wins_at_max_everywhere = false;
  int measurement_failures = 0;

  /// The model replays the upstream schedule exactly, but each round's
  /// master issues the go broadcast in the same event as its barrier's
  /// release broadcast. Every stream has its own send cursor, so on each
  /// link the two empty frames leave together and the FIFO clamp lands the
  /// go 1 ns late: every point measures 1 ns above the model
  /// (IcclModelOnTheWire pins both cases).
  static constexpr long long kGapNs = 1;

  /// The bench exit gate: the model within kGapNs of every point, every
  /// session measured, and the headline claim - the rendezvous gather beats
  /// eager at the largest swept payload on every topology.
  [[nodiscard]] bool gate_ok() const {
    return max_abs_gap_ns <= kGapNs && rendezvous_wins_at_max_everywhere &&
           measurement_failures == 0;
  }
};

namespace gather_sweep {

/// Shared observation state for one (topology, protocol) session: per-round
/// master go-issue time and root delivery time.
struct SweepState {
  std::vector<std::size_t> payloads;
  std::vector<sim::Time> issue;
  std::vector<sim::Time> done_at;
  std::vector<bool> gathered_ok;
  int ranks_done = 0;
};

/// BE daemon running the scripted gather sweep. Each round: every rank
/// arms a waiter for the empty go broadcast, a barrier proves the fleet is
/// armed, the master stamps the issue time and releases the go (its own
/// delivery fires synchronously), and every rank contributes the round's
/// payload the moment its go lands - the exact timeline
/// PerfModel::collective_gather() replays. Rounds are sequenced by the
/// master's gather completion: non-masters pre-arm the next round right
/// after contributing (collective rounds are matched by per-primitive
/// counters, so overlapping a still-draining gather is safe), while the
/// master joins the next barrier only once the contributions landed.
class SweepDaemon : public cluster::Program {
 public:
  explicit SweepDaemon(SweepState* state) : state_(state) {}
  [[nodiscard]] std::string_view name() const override {
    return "gather_sweep_be";
  }

  void on_start(cluster::Process& self) override {
    be_ = std::make_unique<core::BackEnd>(self);
    core::BackEnd::Callbacks cbs;
    cbs.on_init = [](const core::Rpdtab&, const Bytes&,
                     std::function<void(Status)> done) { done(Status::ok()); };
    cbs.on_ready = [this, &self](Status st) {
      if (!st.is_ok()) return;
      nodes_ = static_cast<int>(be_->size());
      round(self, 0);
    };
    (void)be_->init(std::move(cbs));
  }

  static void install(cluster::Machine& machine, SweepState* state) {
    cluster::ProgramImage image;
    image.image_mb = 2.0;
    image.factory = [state](const std::vector<std::string>&) {
      return std::make_unique<SweepDaemon>(state);
    };
    machine.install_program("gather_sweep_be", std::move(image));
  }

 private:
  void round(cluster::Process& self, std::size_t i) {
    if (i == state_->payloads.size()) {
      state_->ranks_done += 1;
      return;
    }
    auto on_go = [this, &self, i](const Bytes&) {
      be_->gather(
          Bytes(state_->payloads[i], 0xA5),
          [this, &self,
           i](std::vector<std::pair<std::uint32_t, Bytes>> entries) {
            state_->done_at[i] = self.sim().now();
            bool ok = static_cast<int>(entries.size()) == nodes_;
            for (const auto& [rank, data] : entries) {
              ok = ok && data.size() == state_->payloads[i];
            }
            state_->gathered_ok[i] = ok;
            round(self, i + 1);
          });
      if (!be_->is_master()) round(self, i + 1);
    };
    if (be_->is_master()) {
      be_->barrier([this, &self, i, on_go] {
        state_->issue[i] = self.sim().now();
        be_->broadcast({}, on_go);
      });
    } else {
      be_->broadcast({}, on_go);
      be_->barrier([] {});
    }
  }

  SweepState* state_;
  std::unique_ptr<core::BackEnd> be_;
  int nodes_ = 0;
};

}  // namespace gather_sweep

/// Runs one session pinned to a protocol (threshold 1 forces rendezvous for
/// any non-empty contribution - the empty go broadcast and the barrier's
/// internal rounds stay eager - UINT32_MAX forces eager) and measures every
/// payload round. Returns one latency (seconds) per payload; -1 on failure.
inline std::vector<double> measure_gather_sweep(
    const comm::TopologySpec& topo, int nodes, std::uint32_t threshold,
    const std::vector<std::size_t>& payloads) {
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  TestCluster tc(nodes, 0, costs);
  ScopedTrace trace(tc);
  gather_sweep::SweepState state;
  state.payloads = payloads;
  state.issue.assign(payloads.size(), 0);
  state.done_at.assign(payloads.size(), 0);
  state.gathered_ok.assign(payloads.size(), false);
  gather_sweep::SweepDaemon::install(tc.machine, &state);

  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "gather_sweep_be";
    cfg.topology = topo;
    cfg.rndv = core::RndvSetting{core::RndvSetting::Mode::Bytes, threshold};
    rm::JobSpec job{nodes, 1, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg, [](Status) {});
  });
  const bool ok = tc.run_until([&] { return state.ranks_done == nodes; },
                               sim::seconds(1800));
  std::vector<double> out(payloads.size(), -1.0);
  if (!ok) return out;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (state.gathered_ok[i]) {
      out[i] = sim::to_seconds(state.done_at[i] - state.issue[i]);
    }
  }
  return out;
}

inline GatherSweepReport run_gather_sweep(const GatherSweepOptions& opts) {
  GatherSweepReport report;
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  const core::PerfModel model(
      costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  report.nodes = opts.nodes;
  report.chunk_bytes = costs.iccl_rndv_chunk_bytes;
  report.payloads = opts.payloads;
  report.protocols = {
      std::string(core::to_string(core::CollectiveProtocol::Eager)),
      std::string(core::to_string(core::CollectiveProtocol::Rendezvous))};
  report.rendezvous_wins_at_max_everywhere = true;

  for (const auto& topo : opts.topologies) {
    report.topologies.push_back(topo.to_string());
    const std::vector<double> eager = measure_gather_sweep(
        topo, opts.nodes, std::numeric_limits<std::uint32_t>::max(),
        opts.payloads);
    const std::vector<double> rndv =
        measure_gather_sweep(topo, opts.nodes, 1, opts.payloads);

    for (int proto_idx = 0; proto_idx < 2; ++proto_idx) {
      const auto proto = proto_idx == 0 ? core::CollectiveProtocol::Eager
                                        : core::CollectiveProtocol::Rendezvous;
      const auto& measured = proto_idx == 0 ? eager : rndv;
      for (std::size_t i = 0; i < opts.payloads.size(); ++i) {
        GatherSweepPoint pt;
        pt.topology = topo.to_string();
        pt.protocol = std::string(core::to_string(proto));
        pt.payload_bytes = opts.payloads[i];
        pt.measured_s = measured[i];
        pt.measured_ok = measured[i] >= 0.0;
        pt.model_s =
            model.collective_gather(proto, topo, opts.nodes, opts.payloads[i]);
        if (pt.measured_ok && pt.measured_s > 0.0) {
          pt.residual_pct =
              (pt.model_s - pt.measured_s) / pt.measured_s * 100.0;
          report.max_abs_residual_pct = std::max(report.max_abs_residual_pct,
                                                 std::abs(pt.residual_pct));
          report.max_abs_gap_ns = std::max(
              report.max_abs_gap_ns, gap_ns(pt.model_s, pt.measured_s));
        } else {
          report.measurement_failures += 1;
        }
        report.points.push_back(std::move(pt));
      }
    }

    GatherCrossoverPoint cx;
    cx.topology = topo.to_string();
    const auto loss = last_loss_index(eager, rndv);
    if (loss && *loss == opts.payloads.size()) {
      cx.measured_bytes = static_cast<double>(opts.payloads.front());
    } else if (loss && *loss + 1 < opts.payloads.size()) {
      cx.measured_bytes =
          interpolate_crossover(opts.payloads, eager, rndv, *loss);
    }
    cx.model_bytes = static_cast<double>(
        model.collective_gather_crossover(topo, opts.nodes,
                                          opts.payloads.back())
            .value_or(0));
    if (cx.model_bytes == 0) cx.model_bytes = -1.0;
    const std::size_t last = opts.payloads.size() - 1;
    cx.rendezvous_wins_at_max =
        eager[last] >= 0 && rndv[last] >= 0 && rndv[last] < eager[last];
    if (!cx.rendezvous_wins_at_max) {
      report.rendezvous_wins_at_max_everywhere = false;
    }
    if (cx.measured_bytes > 0 && cx.model_bytes > 0) {
      const double floor_b = static_cast<double>(opts.payloads.front());
      const double measured_c = std::max(cx.measured_bytes, floor_b);
      const double model_c = std::max(cx.model_bytes, floor_b);
      cx.agreement_pct = (model_c - measured_c) / measured_c * 100.0;
    }
    report.crossovers.push_back(std::move(cx));
  }
  return report;
}

/// Emits the report as a JSON object (no trailing newline) indented by
/// `indent` spaces, for embedding as a "gather_sweep" value inside the
/// fig5/fig6 reports.
inline std::string gather_sweep_json(const GatherSweepReport& r, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out;
  out += "{\n";
  out += pad + "  \"nodes\": " + std::to_string(r.nodes) + ",\n";
  out += pad + "  \"chunk_bytes\": " + std::to_string(r.chunk_bytes) + ",\n";
  out += pad + "  \"payloads\": [";
  for (std::size_t i = 0; i < r.payloads.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(r.payloads[i]);
  }
  out += "],\n";
  out += pad + "  \"topologies\": [";
  for (std::size_t i = 0; i < r.topologies.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + r.topologies[i] + "\"";
  }
  out += "],\n";
  out += pad + "  \"protocols\": [";
  for (std::size_t i = 0; i < r.protocols.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + r.protocols[i] + "\"";
  }
  out += "],\n";
  out += pad + "  \"points\": [\n";
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const GatherSweepPoint& p = r.points[i];
    out += pad + "    {\"topology\": \"" + p.topology + "\", \"protocol\": \"" +
           p.protocol +
           "\", \"payload_bytes\": " + std::to_string(p.payload_bytes) +
           ", \"measured_ok\": " + (p.measured_ok ? "true" : "false") +
           ", \"measured_s\": " + jsonv::num(p.measured_s) +
           ", \"model_s\": " + jsonv::num(p.model_s) +
           ", \"residual_pct\": " + jsonv::num(p.residual_pct) + "}";
    if (i + 1 != r.points.size()) out += ",";
    out += "\n";
  }
  out += pad + "  ],\n";
  out += pad + "  \"crossovers\": [\n";
  for (std::size_t i = 0; i < r.crossovers.size(); ++i) {
    const GatherCrossoverPoint& c = r.crossovers[i];
    out += pad + "    {\"topology\": \"" + c.topology +
           "\", \"measured_bytes\": " + jsonv::num(c.measured_bytes) +
           ", \"model_bytes\": " + jsonv::num(c.model_bytes) +
           ", \"agreement_pct\": " + jsonv::num(c.agreement_pct) +
           ", \"rendezvous_wins_at_max\": " +
           (c.rendezvous_wins_at_max ? "true" : "false") + "}";
    if (i + 1 != r.crossovers.size()) out += ",";
    out += "\n";
  }
  out += pad + "  ],\n";
  out += pad + "  \"max_abs_residual_pct\": " +
         jsonv::num(r.max_abs_residual_pct) + ",\n";
  out += pad + "  \"rendezvous_wins_at_max_everywhere\": " +
         std::string(r.rendezvous_wins_at_max_everywhere ? "true" : "false") +
         ",\n";
  out += pad + "  \"measurement_failures\": " +
         std::to_string(r.measurement_failures) + "\n";
  out += pad + "}";
  return out;
}

/// Human-readable table for the bench's default (non---json) output.
inline void print_gather_table(const GatherSweepReport& report) {
  std::printf(
      "\nupstream gather sweep (per-rank payload; go-signal to root "
      "delivery):\n");
  std::printf("%10s %11s %10s | %11s %11s %9s\n", "topology", "protocol",
              "payload", "measured", "model", "residual");
  for (const auto& p : report.points) {
    std::printf("%10s %11s %9zuK |", p.topology.c_str(), p.protocol.c_str(),
                p.payload_bytes / 1024);
    if (!p.measured_ok) {
      std::printf(" %10s", "FAIL");
    } else {
      std::printf(" %9.4fs", p.measured_s);
    }
    std::printf(" %10.4fs", p.model_s);
    if (p.measured_ok) {
      std::printf(" %8.1f%%", p.residual_pct);
    } else {
      std::printf(" %9s", "-");
    }
    std::printf("\n");
  }
  std::printf("gather crossovers (eager -> rendezvous per-rank payload):\n");
  for (const auto& c : report.crossovers) {
    std::printf("  %10s  measured ~%8.0f B  model %8.0f B%s\n",
                c.topology.c_str(), c.measured_bytes, c.model_bytes,
                c.rendezvous_wins_at_max ? "" : "  [rndv never wins!]");
  }
  std::printf(
      "max |model - measured|: %lld ns (gate: %lld ns); rendezvous wins at "
      "max payload: %s\n",
      report.max_abs_gap_ns, GatherSweepReport::kGapNs,
      report.rendezvous_wins_at_max_everywhere ? "yes (all topologies)"
                                               : "NO");
}

}  // namespace lmon::bench
