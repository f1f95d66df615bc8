// ablation_heal_lib.hpp - the self-healing availability sweep shared by
// bench_ablation_heal and the bench-schema golden test.
//
// The paper's tree of comm daemons is a single point of failure at every
// interior node; the fabric now heals (see "Self-healing trees" in
// docs/ARCHITECTURE.md). This sweep quantifies that: for each fabric
// topology and each correlated-failure magnitude (a fraction of the
// non-root ranks dying at once, spread across the tree), it scripts the
// deaths through tests/fault_plan.hpp, measures time-to-recovery (last
// kill until every survivor is reparented onto a live ancestor and
// heal-idle), then drives a full broadcast + gather over the healed tree
// and counts lost or duplicated payloads. The bench gates on: every point
// recovers inside the recovery budget, zero lost payloads, zero duplicate
// deliveries, zero give-ups.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/ablation_rsh_lib.hpp"  // jsonv helpers + json_shape
#include "bench/bench_util.hpp"
#include "comm/bootstrap.hpp"
#include "comm/topology.hpp"
#include "core/iccl.hpp"
#include "obs/metrics.hpp"
#include "tests/fault_plan.hpp"

namespace lmon::bench {

struct HealAblationOptions {
  int nodes = 16;
  /// Fractions of the non-root ranks killed simultaneously per point.
  std::vector<double> kill_fractions = {0.0625, 0.125, 0.25};
  std::vector<comm::TopologySpec> topologies = {
      {comm::TopologyKind::KAry, 2},
      {comm::TopologyKind::KAry, 4},
      {comm::TopologyKind::Binomial, 0},
      {comm::TopologyKind::Flat, 0}};
  std::size_t payload_bytes = 4096;
  /// Recovery budget per point (simulated seconds from last kill to a
  /// fully reparented, heal-idle fabric).
  double recovery_gate_s = 5.0;

  static HealAblationOptions smoke() {
    HealAblationOptions o;
    o.nodes = 8;
    o.kill_fractions = {0.125, 0.25};
    o.topologies = {{comm::TopologyKind::KAry, 2},
                    {comm::TopologyKind::Flat, 0}};
    return o;
  }
};

struct HealAblationPoint {
  std::string topology;
  double kill_fraction = 0.0;
  int killed = 0;
  int survivors = 0;
  bool recovered = false;    ///< settled inside the run_until budget
  double recovery_s = -1.0;  ///< last kill -> settled (-1: never)
  double reattaches = 0.0;   ///< iccl.heal.reattaches
  double adoptions = 0.0;    ///< iccl.heal.adoptions
  double give_ups = 0.0;     ///< iccl.heal.give_ups
  int lost_payloads = 0;     ///< post-heal deliveries missing or corrupt
  int duplicate_deliveries = 0;
};

struct HealAblationReport {
  int nodes = 0;
  std::size_t payload_bytes = 0;
  double recovery_gate_s = 0.0;
  std::vector<std::string> topologies;
  std::vector<double> kill_fractions;
  std::vector<HealAblationPoint> points;
  double max_recovery_s = 0.0;
  int total_lost_payloads = 0;
  int total_duplicates = 0;
  double total_give_ups = 0.0;
  bool all_recovered = false;
};

namespace heal_sweep {

/// Shared observation state for one availability session (kept outside the
/// TestCluster so zombie Programs can still deregister at teardown).
struct SweepShared {
  std::map<std::uint32_t, std::map<std::uint32_t, int>> bcast_count;
  std::map<std::uint32_t, std::map<std::uint32_t, Bytes>> bcast_by_tag;
  std::map<std::uint32_t, int> gather_fired;
  std::map<std::uint32_t, std::vector<std::pair<std::uint32_t, Bytes>>>
      gather_by_tag;
  std::map<std::uint32_t, core::Iccl*> iccls;  ///< live instances only
  int ready = 0;
};

class SweepDaemon : public cluster::Program {
 public:
  explicit SweepDaemon(SweepShared* sh) : sh_(sh) {}
  ~SweepDaemon() override {
    if (rank_ != kNoRank) sh_->iccls.erase(rank_);
  }
  [[nodiscard]] std::string_view name() const override { return "heal_be"; }

  void on_start(cluster::Process& self) override {
    auto params = comm::parse_bootstrap(self.args(), self.node().hostname());
    if (!params.has_value()) return;
    iccl_ = std::make_unique<core::Iccl>(self, std::move(*params));
    rank_ = iccl_->rank();
    const std::uint32_t rank = rank_;
    core::Iccl::SessionHandlers handlers;
    handlers.on_bcast = [this, rank](std::uint32_t tag, const ByteSlice& data) {
      sh_->bcast_count[rank][tag] += 1;
      sh_->bcast_by_tag[rank][tag] = data.to_bytes();
    };
    handlers.on_gather =
        [this](std::uint32_t tag,
               std::vector<std::pair<std::uint32_t, Bytes>> entries) {
          sh_->gather_fired[tag] += 1;
          sh_->gather_by_tag[tag] = std::move(entries);
        };
    iccl_->bind_session(0, std::move(handlers));
    sh_->iccls[rank] = iccl_.get();
    iccl_->start([this](Status st) {
      if (st.is_ok()) sh_->ready += 1;
    });
  }

 private:
  static constexpr std::uint32_t kNoRank = 0xffffffffu;
  SweepShared* sh_;
  std::uint32_t rank_ = kNoRank;
  std::unique_ptr<core::Iccl> iccl_;
};

inline Bytes patterned(std::size_t size, std::uint8_t salt) {
  Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 31) ^ salt);
  }
  return b;
}

/// Victims spread across ranks 1..n-1 at an even stride, so a given
/// fraction hits every depth of the tree instead of one rack.
inline std::vector<std::uint32_t> pick_victims(int n, int killed) {
  std::vector<std::uint32_t> out;
  const int pool = n - 1;  // rank 0 (the root) never dies here
  const double stride = static_cast<double>(pool) / killed;
  for (int i = 0; i < killed; ++i) {
    auto r = 1 + static_cast<std::uint32_t>(std::floor(i * stride));
    if (!out.empty() && r <= out.back()) r = out.back() + 1;
    if (r > static_cast<std::uint32_t>(pool)) break;
    out.push_back(r);
  }
  return out;
}

inline bool fabric_settled(const TestCluster& tc, const SweepShared& sh,
                           const lmon::testing::FaultPlan& plan,
                           const std::set<std::uint32_t>& alive) {
  if (tc.simulator.now() <= plan.last_kill()) return false;
  for (const std::uint32_t r : alive) {
    auto it = sh.iccls.find(r);
    if (it == sh.iccls.end() || !it->second->heal_idle()) return false;
    if (r == 0) continue;
    const std::uint32_t parent = it->second->parent_rank();
    auto pit = sh.iccls.find(parent);
    if (alive.count(parent) == 0 || pit == sh.iccls.end()) return false;
    const auto kids = pit->second->live_children();
    if (std::find(kids.begin(), kids.end(), r) == kids.end()) return false;
  }
  return true;
}

}  // namespace heal_sweep

/// Runs one availability session: wire, baseline round, correlated kill,
/// time the heal, then verify a full broadcast + gather over the survivors.
inline HealAblationPoint measure_heal_point(const comm::TopologySpec& topo,
                                            int nodes, int killed,
                                            double fraction,
                                            std::size_t payload_bytes) {
  using lmon::testing::FaultPlan;
  HealAblationPoint pt;
  pt.topology = topo.to_string();
  pt.kill_fraction = fraction;
  pt.killed = killed;
  pt.survivors = nodes - killed;

  heal_sweep::SweepShared sh;  // must outlive the cluster (zombie dtors)
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  TestCluster tc(nodes, 0, costs);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);

  comm::BootstrapSpec spec;
  spec.size = static_cast<std::uint32_t>(nodes);
  spec.topology = topo;
  spec.port = cluster::kToolFabricBasePort;
  spec.session = "heal-bench";
  spec.heal = true;
  for (int i = 0; i < nodes; ++i) {
    spec.hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  const Arg hosts = comm::hosts_arg(join_csv(spec.hosts));
  std::vector<cluster::Pid> pids;
  for (std::uint32_t r = 0; r < spec.size; ++r) {
    cluster::SpawnOptions opts;
    opts.executable = "heal_be";
    opts.args = comm::bootstrap_args(spec, r, hosts);
    auto res = tc.machine.compute_node(static_cast<int>(r))
                   .spawn(std::make_unique<heal_sweep::SweepDaemon>(&sh),
                          std::move(opts));
    if (!res.is_ok()) return pt;
    pids.push_back(res.value);
  }
  if (!tc.run_until([&] { return sh.ready == nodes; })) return pt;

  // Baseline round proves the fabric before any failure.
  const Bytes baseline = heal_sweep::patterned(payload_bytes, 0x11);
  sh.iccls[0]->broadcast(1, baseline);
  if (!tc.run_until([&] {
        for (std::uint32_t r = 0; r < spec.size; ++r) {
          if (sh.bcast_by_tag[r].count(1) == 0) return false;
        }
        return true;
      })) {
    return pt;
  }

  // Correlated kill: `killed` ranks die in the same simulated instant.
  const auto victims = heal_sweep::pick_victims(nodes, killed);
  const FaultPlan plan =
      FaultPlan::correlated(tc.simulator.now() + sim::ms(10), victims);
  plan.arm(tc.machine, pids);
  std::set<std::uint32_t> alive;
  for (std::uint32_t r = 0; r < spec.size; ++r) alive.insert(r);
  for (const std::uint32_t d : plan.dead_ranks()) alive.erase(d);

  pt.recovered = tc.run_until(
      [&] { return heal_sweep::fabric_settled(tc, sh, plan, alive); },
      sim::seconds(600));
  if (!pt.recovered) return pt;
  pt.recovery_s = sim::to_seconds(tc.simulator.now() - plan.last_kill());
  pt.reattaches = metrics.counter("iccl.heal.reattaches");
  pt.adoptions = metrics.counter("iccl.heal.adoptions");
  pt.give_ups = metrics.counter("iccl.heal.give_ups");

  // Post-heal broadcast: exactly-once, byte-identical at every survivor.
  const Bytes probe = heal_sweep::patterned(payload_bytes, 0x77);
  sh.iccls[0]->broadcast(2, probe);
  tc.run_until([&] {
    for (const std::uint32_t r : alive) {
      if (sh.bcast_by_tag[r].count(2) == 0) return false;
    }
    return true;
  });
  for (const std::uint32_t r : alive) {
    if (sh.bcast_by_tag[r].count(2) == 0 || sh.bcast_by_tag[r][2] != probe) {
      pt.lost_payloads += 1;
    } else if (sh.bcast_count[r][2] != 1) {
      pt.duplicate_deliveries += sh.bcast_count[r][2] - 1;
    }
  }

  // Post-heal gather: the root assembles exactly the survivor set.
  constexpr std::uint32_t kGatherTag = 3;
  for (const std::uint32_t r : alive) {
    sh.iccls[r]->contribute(
        kGatherTag,
        heal_sweep::patterned(64 + r, static_cast<std::uint8_t>(r)));
  }
  tc.run_until([&] { return sh.gather_fired[kGatherTag] != 0; });
  if (sh.gather_fired[kGatherTag] == 0) {
    pt.lost_payloads += static_cast<int>(alive.size());
  } else {
    pt.duplicate_deliveries += sh.gather_fired[kGatherTag] - 1;
    std::set<std::uint32_t> seen;
    for (const auto& [origin, data] : sh.gather_by_tag[kGatherTag]) {
      if (!seen.insert(origin).second) {
        pt.duplicate_deliveries += 1;
        continue;
      }
      if (alive.count(origin) == 0 ||
          data != heal_sweep::patterned(64 + origin,
                                        static_cast<std::uint8_t>(origin))) {
        pt.lost_payloads += 1;
      }
    }
    for (const std::uint32_t r : alive) {
      if (seen.count(r) == 0) pt.lost_payloads += 1;
    }
  }
  return pt;
}

inline HealAblationReport run_heal_ablation(const HealAblationOptions& opts) {
  HealAblationReport report;
  report.nodes = opts.nodes;
  report.payload_bytes = opts.payload_bytes;
  report.recovery_gate_s = opts.recovery_gate_s;
  report.kill_fractions = opts.kill_fractions;
  report.all_recovered = true;
  for (const auto& topo : opts.topologies) {
    report.topologies.push_back(topo.to_string());
    for (const double f : opts.kill_fractions) {
      const int killed = std::max(
          1, static_cast<int>(std::lround(f * (opts.nodes - 1))));
      HealAblationPoint pt = measure_heal_point(topo, opts.nodes, killed, f,
                                                opts.payload_bytes);
      report.all_recovered = report.all_recovered && pt.recovered;
      if (pt.recovered) {
        report.max_recovery_s = std::max(report.max_recovery_s,
                                         pt.recovery_s);
      }
      report.total_lost_payloads += pt.lost_payloads;
      report.total_duplicates += pt.duplicate_deliveries;
      report.total_give_ups += pt.give_ups;
      report.points.push_back(std::move(pt));
    }
  }
  return report;
}

// --- JSON emission (deterministic key order; the emitter is the schema) ------

inline std::string to_json(const HealAblationReport& r) {
  std::string out;
  out += "{\n";
  out += "  \"bench\": \"ablation_heal\",\n";
  out += "  \"deterministic\": true,\n";
  out += "  \"nodes\": " + std::to_string(r.nodes) + ",\n";
  out += "  \"payload_bytes\": " + std::to_string(r.payload_bytes) + ",\n";
  out += "  \"recovery_gate_s\": " + jsonv::num(r.recovery_gate_s) + ",\n";
  out += "  \"topologies\": [";
  for (std::size_t i = 0; i < r.topologies.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + r.topologies[i] + "\"";
  }
  out += "],\n";
  out += "  \"kill_fractions\": [";
  for (std::size_t i = 0; i < r.kill_fractions.size(); ++i) {
    if (i != 0) out += ", ";
    out += jsonv::num(r.kill_fractions[i]);
  }
  out += "],\n";
  out += "  \"points\": [\n";
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const HealAblationPoint& p = r.points[i];
    out += "    {\"topology\": \"" + p.topology +
           "\", \"kill_fraction\": " + jsonv::num(p.kill_fraction) +
           ", \"killed\": " + std::to_string(p.killed) +
           ", \"survivors\": " + std::to_string(p.survivors) +
           ", \"recovered\": " + (p.recovered ? "true" : "false") +
           ", \"recovery_s\": " + jsonv::num(p.recovery_s) +
           ", \"reattaches\": " + jsonv::num(p.reattaches) +
           ", \"adoptions\": " + jsonv::num(p.adoptions) +
           ", \"give_ups\": " + jsonv::num(p.give_ups) +
           ", \"lost_payloads\": " + std::to_string(p.lost_payloads) +
           ", \"duplicate_deliveries\": " +
           std::to_string(p.duplicate_deliveries) + "}";
    if (i + 1 != r.points.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"max_recovery_s\": " + jsonv::num(r.max_recovery_s) + ",\n";
  out += "  \"total_lost_payloads\": " +
         std::to_string(r.total_lost_payloads) + ",\n";
  out += "  \"total_duplicates\": " + std::to_string(r.total_duplicates) +
         ",\n";
  out += "  \"total_give_ups\": " + jsonv::num(r.total_give_ups) + ",\n";
  out += "  \"all_recovered\": " +
         std::string(r.all_recovered ? "true" : "false") + "\n";
  out += "}\n";
  return out;
}

}  // namespace lmon::bench
