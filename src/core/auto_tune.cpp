#include "core/auto_tune.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/perf_model.hpp"

namespace lmon::core {

namespace {

constexpr std::uint32_t kPinEager = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kPinRndv = 1;

}  // namespace

std::string RndvSetting::to_string() const {
  switch (mode) {
    case Mode::Auto:
      return "auto";
    case Mode::PlatformDefault:
      return "platform-default";
    case Mode::AlwaysEager:
      return "always-eager";
    case Mode::AlwaysRndv:
      return "always-rndv";
    case Mode::Bytes:
      return std::to_string(bytes);
  }
  return "auto";
}

std::optional<RndvSetting> RndvSetting::parse(std::string_view text) {
  if (text == "auto") return RndvSetting{Mode::Auto, 0};
  if (text == "platform-default") return RndvSetting{Mode::PlatformDefault, 0};
  if (text == "always-eager") return RndvSetting{Mode::AlwaysEager, 0};
  if (text == "always-rndv") return RndvSetting{Mode::AlwaysRndv, 0};
  std::uint32_t v = 0;
  const auto* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || p != end || text.empty()) return std::nullopt;
  // "0" would resurrect the old sentinel; map it to its actual meaning.
  if (v == 0) return RndvSetting{Mode::PlatformDefault, 0};
  return RndvSetting{Mode::Bytes, v};
}

Bytes TunedConfig::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(strategy));
  w.u8(static_cast<std::uint8_t>(topology.kind));
  w.u32(topology.arity);
  w.u32(rndv_threshold);
  w.boolean(strategy_from_model);
  w.boolean(topology_from_model);
  w.boolean(rndv_from_model);
  w.f64(predicted_total_s);
  w.u32(bcast_crossover);
  w.str(platform);
  w.boolean(heal);
  return std::move(w).take();
}

std::optional<TunedConfig> TunedConfig::decode(const Bytes& b) {
  ByteReader r(b);
  const auto strat = r.u8();
  const auto kind_raw = r.u8();
  const auto arity = r.u32();
  const auto rndv = r.u32();
  const auto sm = r.boolean();
  const auto tm = r.boolean();
  const auto rm = r.boolean();
  const auto total = r.f64();
  const auto bx = r.u32();
  auto platform = r.str();
  const auto heal_f = r.boolean();
  if (!strat || !kind_raw || !arity || !rndv || !sm || !tm || !rm || !total ||
      !bx || !platform || !heal_f) {
    return std::nullopt;
  }
  if (*strat > static_cast<std::uint8_t>(comm::LaunchStrategyKind::TreeRsh)) {
    return std::nullopt;
  }
  const auto kind = comm::topology_kind_from_u8(*kind_raw);
  if (!kind) return std::nullopt;
  TunedConfig cfg;
  cfg.strategy = static_cast<comm::LaunchStrategyKind>(*strat);
  cfg.topology = {*kind, *arity};
  cfg.rndv_threshold = *rndv;
  cfg.strategy_from_model = *sm;
  cfg.topology_from_model = *tm;
  cfg.rndv_from_model = *rm;
  cfg.predicted_total_s = *total;
  cfg.bcast_crossover = *bx;
  cfg.platform = std::move(*platform);
  cfg.heal = *heal_f;
  return cfg;
}

TunedConfig auto_tune(const cluster::CostModel& costs,
                      const AutoTuneRequest& req) {
  const int n = std::max(1, req.n_nodes);
  const int tpn = std::max(1, req.tasks_per_node);
  const auto rm_fanout = static_cast<std::uint32_t>(costs.rm_launch_fanout);
  const PerfModel model(costs, rm_fanout);

  // Candidate fabrics, platform default first so a tie keeps the shape a
  // hand-configured session would have gotten. An explicit topology (arity 0
  // resolved against the profile's fan-out, mirroring the FE API) collapses
  // the set to one.
  std::vector<comm::TopologySpec> topologies;
  if (req.topology) {
    comm::TopologySpec t = *req.topology;
    if (t.arity == 0) t.arity = rm_fanout;
    topologies.push_back(t);
  } else {
    topologies.push_back({comm::TopologyKind::KAry, rm_fanout});
    for (std::uint32_t k : {2u, 4u, 8u, 16u, 32u}) {
      const comm::TopologySpec cand{comm::TopologyKind::KAry, k};
      if (std::find(topologies.begin(), topologies.end(), cand) ==
          topologies.end()) {
        topologies.push_back(cand);
      }
    }
    topologies.push_back({comm::TopologyKind::Binomial, rm_fanout});
    topologies.push_back({comm::TopologyKind::Flat, rm_fanout});
  }

  std::vector<comm::LaunchStrategyKind> strategies;
  if (req.strategy) {
    strategies.push_back(*req.strategy);
  } else {
    // Default-first ordering again: rm-bulk is the incumbent everywhere the
    // model ties.
    strategies = {comm::LaunchStrategyKind::RmBulk,
                  comm::LaunchStrategyKind::TreeRsh,
                  comm::LaunchStrategyKind::SerialRsh};
  }

  TunedConfig cfg;
  cfg.platform = req.platform;
  cfg.strategy_from_model = !req.strategy;
  cfg.topology_from_model = !req.topology;

  bool found = false;
  double best = 0;
  for (const auto strat : strategies) {
    // A predicted-failure strategy is never selected by the model; an
    // explicit request for one is honored (the user overrode the model).
    if (!req.strategy && model.predicts_failure(strat, n)) continue;
    for (const auto& topo : topologies) {
      const double total = model.predict(strat, topo, n, tpn).total();
      if (!found || total < best) {
        found = true;
        best = total;
        cfg.strategy = strat;
        cfg.topology = topo;
      }
    }
  }
  if (!found) {
    // Every candidate predicts failure (tiny fork limits on a no-remote-
    // access machine with rm-bulk excluded explicitly can get here only via
    // contradictory explicit knobs); fall back to the platform default shape
    // rather than inventing one.
    cfg.strategy = req.strategy.value_or(comm::LaunchStrategyKind::RmBulk);
    cfg.topology = topologies.front();
    best = model.predict(cfg.strategy, cfg.topology, n, tpn).total();
  }

  // The broadcast crossover, solved on the *chosen* fabric: the handshake
  // RPDTAB broadcast and the tool collectives run there. The probe range is
  // capped well above every crossover the calibrated platforms exhibit - the
  // solver replays the fabric per candidate payload (O(n x chunks)) and
  // probes two payloads per chunk segment, so both the
  // byte range and the segment count must be bounded for session setup to
  // stay cheap (tests shrink iccl_rndv_chunk_bytes to a few bytes to force
  // chunk streaming; an uncapped probe would grind for minutes there).
  constexpr std::size_t kProbeMaxBytes = 4u << 20;
  constexpr std::size_t kProbeMaxSegments = 256;
  const std::size_t probe_max = std::min<std::size_t>(
      kProbeMaxBytes,
      std::max<std::size_t>(1, costs.iccl_rndv_chunk_bytes) *
          kProbeMaxSegments);
  cfg.bcast_crossover = static_cast<std::uint32_t>(
      model.collective_crossover(cfg.topology, n, probe_max).value_or(0));

  switch (req.rndv.mode) {
    case RndvSetting::Mode::Bytes:
      cfg.rndv_threshold = req.rndv.bytes != 0 ? req.rndv.bytes
                                               : costs.iccl_rndv_threshold_bytes;
      break;
    case RndvSetting::Mode::AlwaysEager:
      cfg.rndv_threshold = kPinEager;
      break;
    case RndvSetting::Mode::AlwaysRndv:
      cfg.rndv_threshold = kPinRndv;
      break;
    case RndvSetting::Mode::PlatformDefault:
      cfg.rndv_threshold = costs.iccl_rndv_threshold_bytes;
      break;
    case RndvSetting::Mode::Auto:
      cfg.rndv_from_model = true;
      // Crossover solver: smallest payload from which rendezvous stays
      // ahead. No crossover in the probe range means eager wins at every
      // payload the fabric will see - pin eager.
      cfg.rndv_threshold =
          cfg.bcast_crossover != 0 ? cfg.bcast_crossover : kPinEager;
      break;
  }
  if (cfg.rndv_threshold == 0) cfg.rndv_threshold = kPinRndv;

  cfg.predicted_total_s =
      model.predict(cfg.strategy, cfg.topology, n, tpn, cfg.rndv_threshold)
          .total();
  return cfg;
}

}  // namespace lmon::core
