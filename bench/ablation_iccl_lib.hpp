// ablation_iccl_lib.hpp - the ICCL eager/rendezvous broadcast ablation
// shared by bench_ablation_iccl and the bench-schema golden test.
//
// The paper attributes collective latency to the root daemon serializing
// its per-child sends; the ICCL now switches between two protocols for
// exactly that fan-out (see "Eager/rendezvous collectives" in
// docs/ARCHITECTURE.md). This sweep measures fleet-wide broadcast latency
// (master issue to last delivery) for payload x topology x protocol, pins
// every point against core::PerfModel::collective_bcast(), and compares the
// measured eager->rendezvous crossover payload against the analytic
// collective_crossover() solver. Protocols are forced through the real
// session option (SpawnConfig::rndv), so the sweep drives the identical
// code path tools use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/ablation_rsh_lib.hpp"  // jsonv helpers + json_shape
#include "bench/bench_util.hpp"
#include "core/be_api.hpp"
#include "core/fe_api.hpp"
#include "core/perf_model.hpp"

namespace lmon::bench {

struct IcclAblationOptions {
  int nodes = 32;
  /// Payload grid (bytes), ascending. Starts at the model solver's floor
  /// (1 KiB) so "crossover below the grid" means the same thing on both
  /// sides of the comparison.
  std::vector<std::size_t> payloads = {1u << 10, 4u << 10,  16u << 10,
                                       64u << 10, 256u << 10, 1u << 20,
                                       4u << 20};
  std::vector<comm::TopologySpec> topologies = {
      {comm::TopologyKind::KAry, 2},
      {comm::TopologyKind::KAry, 4},
      {comm::TopologyKind::KAry, 8},
      {comm::TopologyKind::Binomial, 0},
      {comm::TopologyKind::Flat, 0}};

  static IcclAblationOptions smoke() {
    IcclAblationOptions o;
    o.nodes = 8;
    o.payloads = {1u << 10, 64u << 10, 1u << 20};
    o.topologies = {{comm::TopologyKind::KAry, 2},
                    {comm::TopologyKind::Flat, 0}};
    return o;
  }
};

struct IcclAblationPoint {
  std::string topology;
  std::string protocol;  ///< "eager" | "rendezvous"
  std::size_t payload_bytes = 0;
  bool measured_ok = false;
  double measured_s = -1.0;
  double model_s = -1.0;
  double residual_pct = 0.0;  ///< (model - measured) / measured * 100
};

struct IcclCrossoverPoint {
  std::string topology;
  /// Interpolated payload where measured rendezvous overtakes measured
  /// eager (-1: rendezvous never wins on the grid).
  double measured_bytes = -1.0;
  /// PerfModel::collective_crossover() (-1: never in range).
  double model_bytes = -1.0;
  double agreement_pct = 0.0;  ///< (model - measured) / measured * 100
  /// Rendezvous beat eager at the largest swept payload on this topology.
  bool rendezvous_wins_at_max = false;
};

/// One model-only scatter point: the live fabric has no rendezvous scatter
/// (payload parts ride eager frames at every threshold), so the sweep asks
/// PerfModel::collective_scatter() what a chunk-streamed scatter *would*
/// cost and whether it would ever beat the shipping eager path.
struct ScatterModelPoint {
  std::string topology;
  std::size_t payload_bytes = 0;  ///< per-rank part size
  double eager_s = -1.0;
  double rndv_s = -1.0;
};

struct ScatterCrossoverPoint {
  std::string topology;
  /// collective_scatter_crossover() (-1: eager wins through the grid max,
  /// i.e. a rendezvous scatter would never pay off on this fabric).
  double model_bytes = -1.0;
  bool rndv_wins_at_max = false;
};

struct IcclAblationReport {
  int nodes = 0;
  std::uint32_t chunk_bytes = 0;
  std::vector<std::size_t> payloads;
  std::vector<std::string> topologies;
  std::vector<std::string> protocols;
  std::vector<IcclAblationPoint> points;
  std::vector<IcclCrossoverPoint> crossovers;
  std::vector<ScatterModelPoint> scatter_model;
  std::vector<ScatterCrossoverPoint> scatter_crossovers;
  /// A hypothetical rendezvous scatter would win somewhere on the sweep -
  /// the go/no-go answer for ever implementing one.
  bool rendezvous_scatter_ever_wins = false;
  double max_abs_residual_pct = 0.0;
  /// Largest |model - measured| over the measured points, in whole ns: the
  /// replay runs on the simulation's own cost terms, so the gate is 0.
  long long max_abs_gap_ns = 0;
  double max_abs_crossover_pct = 0.0;
  bool rendezvous_wins_at_max_everywhere = false;
  int measurement_failures = 0;
};

/// |model - measured| in whole ns; both sides are simulated ns counts
/// given in seconds.
inline long long gap_ns(double model_s, double measured_s) {
  return std::llabs(std::llround((model_s - measured_s) * 1e9));
}

namespace iccl_sweep {

/// Shared observation state for one (topology, protocol) session: per-round
/// master issue time and fleet-wide last delivery.
struct SweepState {
  std::vector<std::size_t> payloads;
  std::vector<sim::Time> issue;
  std::vector<sim::Time> last_delivery;
  std::vector<int> delivered;
  int ranks_done = 0;
};

/// BE daemon running the scripted broadcast sweep. Non-masters register the
/// round's delivery waiter *before* entering the barrier, so a rendezvous
/// payload racing ahead of the (staggered, eager) barrier-release wave is
/// still timestamped at true arrival; the master issues only after the
/// barrier, i.e. after every rank is armed.
class SweepDaemon : public cluster::Program {
 public:
  explicit SweepDaemon(SweepState* state) : state_(state) {}
  [[nodiscard]] std::string_view name() const override { return "sweep_be"; }

  void on_start(cluster::Process& self) override {
    be_ = std::make_unique<core::BackEnd>(self);
    core::BackEnd::Callbacks cbs;
    cbs.on_init = [](const core::Rpdtab&, const Bytes&,
                     std::function<void(Status)> done) { done(Status::ok()); };
    cbs.on_ready = [this, &self](Status st) {
      if (!st.is_ok()) return;
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
    machine.install_program("sweep_be", std::move(image));
  }

 private:
  void round(cluster::Process& self, std::size_t i) {
    if (i == state_->payloads.size()) {
      state_->ranks_done += 1;
      return;
    }
    auto on_delivered = [this, &self, i](const Bytes&) {
      state_->last_delivery[i] =
          std::max(state_->last_delivery[i], self.sim().now());
      state_->delivered[i] += 1;
      round(self, i + 1);
    };
    if (be_->is_master()) {
      be_->barrier([this, &self, i, on_delivered] {
        state_->issue[i] = self.sim().now();
        be_->broadcast(Bytes(state_->payloads[i], 0xA5), on_delivered);
      });
    } else {
      be_->broadcast({}, on_delivered);
      be_->barrier([] {});
    }
  }

  SweepState* state_;
  std::unique_ptr<core::BackEnd> be_;
};

}  // namespace iccl_sweep

/// Runs one session pinned to a protocol (threshold 1 forces rendezvous,
/// UINT32_MAX forces eager) and measures every payload round. Returns one
/// latency (seconds) per payload; all -1 when the session fails.
inline std::vector<double> measure_bcast_sweep(
    const comm::TopologySpec& topo, int nodes, std::uint32_t threshold,
    const std::vector<std::size_t>& payloads) {
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  TestCluster tc(nodes, 0, costs);
  ScopedTrace trace(tc);
  iccl_sweep::SweepState state;
  state.payloads = payloads;
  state.issue.assign(payloads.size(), 0);
  state.last_delivery.assign(payloads.size(), 0);
  state.delivered.assign(payloads.size(), 0);
  iccl_sweep::SweepDaemon::install(tc.machine, &state);

  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "sweep_be";
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
    if (state.delivered[i] == nodes) {
      out[i] = sim::to_seconds(state.last_delivery[i] - state.issue[i]);
    }
  }
  return out;
}

/// Index of the last grid point where eager still wins (eager - rndv <= 0):
/// the crossover lives between it and the next point, matching the
/// definition PerfModel::collective_crossover() solves ("the payload above
/// which rendezvous never loses again"). Returns:
///   nullopt                    - some point unmeasured (no crossover call)
///   payloads.size()            - eager never wins (rendezvous from floor)
///   payloads.size() - 1        - eager still wins at the largest payload
inline std::optional<std::size_t> last_loss_index(
    const std::vector<double>& eager, const std::vector<double>& rndv) {
  std::size_t last = eager.size();  // sentinel: eager never wins
  for (std::size_t i = 0; i < eager.size(); ++i) {
    if (eager[i] < 0 || rndv[i] < 0) return std::nullopt;
    if (eager[i] - rndv[i] <= 0.0) last = i;
  }
  return last;
}

/// Linear interpolation of the payload where (eager - rndv) crosses zero
/// between grid points i and i+1. Exact when both points sit in the same
/// chunk segment (both latency curves are affine in the payload there).
inline double interpolate_crossover(const std::vector<std::size_t>& payloads,
                                    const std::vector<double>& eager,
                                    const std::vector<double>& rndv,
                                    std::size_t i) {
  const double f0 = eager[i] - rndv[i];          // <= 0: eager still ahead
  const double f1 = eager[i + 1] - rndv[i + 1];  // > 0: rendezvous ahead
  const double p0 = static_cast<double>(payloads[i]);
  const double p1 = static_cast<double>(payloads[i + 1]);
  if (f1 - f0 <= 0) return p1;
  return p0 + (0.0 - f0) * (p1 - p0) / (f1 - f0);
}

/// Chunk-segment endpoints covering (lo, hi]: both latency curves are
/// affine within one segment ((m-1)*C+1 .. m*C), so probing each segment's
/// first and last byte makes the crossover interpolation kink-free. Capped
/// by striding whole segments when the bracket spans many.
inline std::vector<std::size_t> refinement_payloads(std::size_t lo,
                                                    std::size_t hi,
                                                    std::uint32_t chunk) {
  std::vector<std::size_t> pts;
  const std::size_t m_lo = lo / chunk;
  const std::size_t m_hi = (hi - 1) / chunk;
  const std::size_t stride = std::max<std::size_t>(1, (m_hi - m_lo + 1) / 12);
  for (std::size_t m = m_lo; m <= m_hi; m += stride) {
    const std::size_t begin = std::max(lo, m * chunk + 1);
    const std::size_t end = std::min(hi, (m + 1) * chunk);
    if (begin > end) continue;
    pts.push_back(begin);
    if (end != begin) pts.push_back(end);
  }
  if (pts.empty() || pts.back() != hi) pts.push_back(hi);
  return pts;
}

inline IcclAblationReport run_iccl_ablation(const IcclAblationOptions& opts) {
  IcclAblationReport report;
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  const core::PerfModel model(
      costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  report.nodes = opts.nodes;
  report.chunk_bytes = costs.iccl_rndv_chunk_bytes;
  report.payloads = opts.payloads;
  report.protocols = {std::string(core::to_string(
                          core::CollectiveProtocol::Eager)),
                      std::string(core::to_string(
                          core::CollectiveProtocol::Rendezvous))};
  report.rendezvous_wins_at_max_everywhere = true;

  for (const auto& topo : opts.topologies) {
    report.topologies.push_back(topo.to_string());
    // Pin the protocol through the session option: a threshold of 1 routes
    // every non-empty broadcast through rendezvous, UINT32_MAX none.
    const std::vector<double> eager = measure_bcast_sweep(
        topo, opts.nodes, std::numeric_limits<std::uint32_t>::max(),
        opts.payloads);
    const std::vector<double> rndv =
        measure_bcast_sweep(topo, opts.nodes, 1, opts.payloads);

    for (int proto_idx = 0; proto_idx < 2; ++proto_idx) {
      const auto proto = proto_idx == 0 ? core::CollectiveProtocol::Eager
                                        : core::CollectiveProtocol::Rendezvous;
      const auto& measured = proto_idx == 0 ? eager : rndv;
      for (std::size_t i = 0; i < opts.payloads.size(); ++i) {
        IcclAblationPoint pt;
        pt.topology = topo.to_string();
        pt.protocol = std::string(core::to_string(proto));
        pt.payload_bytes = opts.payloads[i];
        pt.measured_s = measured[i];
        pt.measured_ok = measured[i] >= 0.0;
        pt.model_s =
            model.collective_bcast(proto, topo, opts.nodes, opts.payloads[i]);
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

    IcclCrossoverPoint cx;
    cx.topology = topo.to_string();
    cx.measured_bytes = -1.0;
    const auto loss = last_loss_index(eager, rndv);
    if (loss && *loss == opts.payloads.size()) {
      // Rendezvous cheaper from the grid floor on.
      cx.measured_bytes = static_cast<double>(opts.payloads.front());
    } else if (loss && *loss + 1 < opts.payloads.size()) {
      cx.measured_bytes =
          interpolate_crossover(opts.payloads, eager, rndv, *loss);
      // Refine around the coarse bracket: re-measure at chunk-segment
      // endpoints (the model solver's probe geometry) so the final
      // interpolation never spans a chunk-count kink, and extend one
      // coarse interval past the bracket - the rendezvous curve dips at
      // every added chunk, so the *last* eager win can sit just past a
      // boundary the coarse grid stepped over.
      const std::size_t hi_idx =
          std::min(*loss + 2, opts.payloads.size() - 1);
      const auto refined = refinement_payloads(opts.payloads[*loss],
                                               opts.payloads[hi_idx],
                                               report.chunk_bytes);
      if (refined.size() >= 2) {
        const auto e2 = measure_bcast_sweep(
            topo, opts.nodes, std::numeric_limits<std::uint32_t>::max(),
            refined);
        const auto r2 = measure_bcast_sweep(topo, opts.nodes, 1, refined);
        const auto rloss = last_loss_index(e2, r2);
        if (rloss && *rloss + 1 < refined.size()) {
          cx.measured_bytes = interpolate_crossover(refined, e2, r2, *rloss);
        }
      }
    }
    cx.model_bytes = static_cast<double>(
        model
            .collective_crossover(topo, opts.nodes,
                                  opts.payloads.back())
            .value_or(0));
    if (cx.model_bytes == 0) cx.model_bytes = -1.0;
    const std::size_t last = opts.payloads.size() - 1;
    cx.rendezvous_wins_at_max = eager[last] >= 0 && rndv[last] >= 0 &&
                                rndv[last] < eager[last];
    if (!cx.rendezvous_wins_at_max) {
      report.rendezvous_wins_at_max_everywhere = false;
    }
    if (cx.measured_bytes > 0 && cx.model_bytes > 0) {
      // Both solvers floor at the smallest modeled payload; clamping keeps
      // "crossover below the grid" from reading as disagreement.
      const double floor_b = static_cast<double>(opts.payloads.front());
      const double measured_c = std::max(cx.measured_bytes, floor_b);
      const double model_c = std::max(cx.model_bytes, floor_b);
      cx.agreement_pct = (model_c - measured_c) / measured_c * 100.0;
      report.max_abs_crossover_pct = std::max(report.max_abs_crossover_pct,
                                              std::abs(cx.agreement_pct));
    } else {
      // One side found a crossover, the other did not: worst disagreement.
      if ((cx.measured_bytes > 0) != (cx.model_bytes > 0)) {
        report.max_abs_crossover_pct = 100.0;
      }
    }
    report.crossovers.push_back(std::move(cx));

    // Model-only scatter sweep on the same grid: no session runs here - the
    // live fabric routes scatter parts through eager frames at every
    // threshold, so the rendezvous column is the hypothetical protocol's
    // closed form and the crossover answers "would one ever pay off".
    for (const std::size_t payload : opts.payloads) {
      ScatterModelPoint sp;
      sp.topology = topo.to_string();
      sp.payload_bytes = payload;
      sp.eager_s = model.collective_scatter(core::CollectiveProtocol::Eager,
                                            topo, opts.nodes, payload);
      sp.rndv_s = model.collective_scatter(
          core::CollectiveProtocol::Rendezvous, topo, opts.nodes, payload);
      report.scatter_model.push_back(std::move(sp));
    }
    ScatterCrossoverPoint sx;
    sx.topology = topo.to_string();
    sx.model_bytes = static_cast<double>(
        model.collective_scatter_crossover(topo, opts.nodes,
                                           opts.payloads.back())
            .value_or(0));
    if (sx.model_bytes == 0) sx.model_bytes = -1.0;
    sx.rndv_wins_at_max =
        model.collective_scatter(core::CollectiveProtocol::Rendezvous, topo,
                                 opts.nodes, opts.payloads.back()) <
        model.collective_scatter(core::CollectiveProtocol::Eager, topo,
                                 opts.nodes, opts.payloads.back());
    if (sx.model_bytes > 0 || sx.rndv_wins_at_max) {
      report.rendezvous_scatter_ever_wins = true;
    }
    report.scatter_crossovers.push_back(std::move(sx));
  }
  return report;
}

// --- JSON emission (deterministic key order; the emitter is the schema) ------

inline std::string to_json(const IcclAblationReport& r) {
  std::string out;
  out += "{\n";
  out += "  \"bench\": \"ablation_iccl\",\n";
  out += "  \"deterministic\": true,\n";
  out += "  \"nodes\": " + std::to_string(r.nodes) + ",\n";
  out += "  \"chunk_bytes\": " + std::to_string(r.chunk_bytes) + ",\n";
  out += "  \"payloads\": [";
  for (std::size_t i = 0; i < r.payloads.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(r.payloads[i]);
  }
  out += "],\n";
  out += "  \"topologies\": [";
  for (std::size_t i = 0; i < r.topologies.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + r.topologies[i] + "\"";
  }
  out += "],\n";
  out += "  \"protocols\": [";
  for (std::size_t i = 0; i < r.protocols.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + r.protocols[i] + "\"";
  }
  out += "],\n";
  out += "  \"points\": [\n";
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const IcclAblationPoint& p = r.points[i];
    out += "    {\"topology\": \"" + p.topology + "\", \"protocol\": \"" +
           p.protocol +
           "\", \"payload_bytes\": " + std::to_string(p.payload_bytes) +
           ", \"measured_ok\": " + (p.measured_ok ? "true" : "false") +
           ", \"measured_s\": " + jsonv::num(p.measured_s) +
           ", \"model_s\": " + jsonv::num(p.model_s) +
           ", \"residual_pct\": " + jsonv::num(p.residual_pct) + "}";
    if (i + 1 != r.points.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"crossovers\": [\n";
  for (std::size_t i = 0; i < r.crossovers.size(); ++i) {
    const IcclCrossoverPoint& c = r.crossovers[i];
    out += "    {\"topology\": \"" + c.topology +
           "\", \"measured_bytes\": " + jsonv::num(c.measured_bytes) +
           ", \"model_bytes\": " + jsonv::num(c.model_bytes) +
           ", \"agreement_pct\": " + jsonv::num(c.agreement_pct) +
           ", \"rendezvous_wins_at_max\": " +
           (c.rendezvous_wins_at_max ? "true" : "false") + "}";
    if (i + 1 != r.crossovers.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"scatter_model\": [\n";
  for (std::size_t i = 0; i < r.scatter_model.size(); ++i) {
    const ScatterModelPoint& p = r.scatter_model[i];
    out += "    {\"topology\": \"" + p.topology +
           "\", \"payload_bytes\": " + std::to_string(p.payload_bytes) +
           ", \"eager_s\": " + jsonv::num(p.eager_s) +
           ", \"rndv_s\": " + jsonv::num(p.rndv_s) + "}";
    if (i + 1 != r.scatter_model.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"scatter_crossovers\": [\n";
  for (std::size_t i = 0; i < r.scatter_crossovers.size(); ++i) {
    const ScatterCrossoverPoint& c = r.scatter_crossovers[i];
    out += "    {\"topology\": \"" + c.topology +
           "\", \"model_bytes\": " + jsonv::num(c.model_bytes) +
           ", \"rndv_wins_at_max\": " +
           (c.rndv_wins_at_max ? "true" : "false") + "}";
    if (i + 1 != r.scatter_crossovers.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"rendezvous_scatter_ever_wins\": " +
         std::string(r.rendezvous_scatter_ever_wins ? "true" : "false") +
         ",\n";
  out += "  \"max_abs_residual_pct\": " +
         jsonv::num(r.max_abs_residual_pct) + ",\n";
  out += "  \"max_abs_crossover_pct\": " +
         jsonv::num(r.max_abs_crossover_pct) + ",\n";
  out += "  \"rendezvous_wins_at_max_everywhere\": " +
         std::string(r.rendezvous_wins_at_max_everywhere ? "true" : "false") +
         ",\n";
  out += "  \"measurement_failures\": " +
         std::to_string(r.measurement_failures) + "\n";
  out += "}\n";
  return out;
}

}  // namespace lmon::bench
