// auto_tune.hpp - model-driven session configuration (the ROADMAP's
// "self-tuning sessions": close the loop from PerfModel to the engine).
//
// PerfModel's analytic solvers - predict()/predicts_failure() for the
// launch strategies, collective_crossover() for the eager/rendezvous switch -
// hold sub-percent residuals against the sim. This header is where those
// solvers become decisions: at session setup the engine calls auto_tune()
// with whatever knobs the SpawnConfig left unset, and the tuner sweeps the
// candidate space against the selected platform profile's CostModel.
//
// This is the one place the eager/rendezvous switch is decided. The engine
// hands the resolved rndv_threshold (never 0) to every daemon it launches,
// BE and MW alike, through the bootstrap; daemons never consult a profile
// themselves. ICCL uses that one threshold for broadcast and gather, so the
// tuner solves only the broadcast crossover.
//
// Precedence (per knob): explicit > profile > model.
//   * explicit  - the SpawnConfig named a strategy/topology/threshold;
//                 the tuner passes it through untouched.
//   * profile   - RndvSetting::PlatformDefault takes the named platform
//                 profile's calibrated iccl_rndv_threshold_bytes.
//   * model     - unset knobs are chosen by minimizing predict().total()
//                 (strategy x topology, skipping predicted failures) and by
//                 the broadcast crossover solver (threshold).
//
// Ties in the sweep keep the *first* candidate, and the candidate order
// starts from the platform defaults (rm-bulk, k-ary at the RM fan-out), so
// auto-tuning never churns a session's shape without a predicted win.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cluster/cost_model.hpp"
#include "comm/launch_strategy.hpp"
#include "comm/topology.hpp"
#include "common/bytes.hpp"

namespace lmon::core {

/// Session eager/rendezvous threshold setting. This replaces the bare
/// "0 means platform default" sentinel that made eager-always unreachable
/// (a session could pin rendezvous with threshold=1 but had no spelling for
/// "never switch").
struct RndvSetting {
  enum class Mode : std::uint8_t {
    Auto = 0,         ///< model-driven: collective_crossover on the tuned fabric
    PlatformDefault,  ///< the platform profile's iccl_rndv_threshold_bytes
    AlwaysEager,      ///< pin eager (threshold above any payload)
    AlwaysRndv,       ///< pin rendezvous (threshold 1)
    Bytes,            ///< explicit threshold in payload bytes
  };
  Mode mode = Mode::Auto;
  std::uint32_t bytes = 0;  ///< Mode::Bytes only

  /// "auto" | "platform-default" | "always-eager" | "always-rndv" | "<N>".
  [[nodiscard]] std::string to_string() const;
  static std::optional<RndvSetting> parse(std::string_view text);

  friend bool operator==(const RndvSetting& a, const RndvSetting& b) {
    return a.mode == b.mode && a.bytes == b.bytes;
  }
};

/// What the tuner decided for one session - the resolved knobs plus the
/// model evidence behind them, recorded to the trace/metrics plane and
/// reported back to the FE so tools (and the ablation bench) can audit the
/// decision.
struct TunedConfig {
  comm::LaunchStrategyKind strategy = comm::LaunchStrategyKind::RmBulk;
  /// Resolved fabric shape (arity never 0).
  comm::TopologySpec topology{comm::TopologyKind::KAry, 2};
  /// Resolved wire threshold (never 0; UINT32_MAX pins eager, 1 rendezvous).
  std::uint32_t rndv_threshold = 1;
  /// Which knobs the model picked (false = explicit/profile override).
  bool strategy_from_model = false;
  bool topology_from_model = false;
  bool rndv_from_model = false;
  /// Predicted launchAndSpawn total (seconds) for the chosen configuration.
  double predicted_total_s = 0;
  /// Solver evidence: smallest broadcast payload from which rendezvous stays
  /// ahead on the chosen fabric (0 = eager wins through the whole probe
  /// range). Auto mode's threshold, and the only crossover solved here.
  std::uint32_t bcast_crossover = 0;
  /// Profile the tuner consulted ("" = the machine's own costs).
  std::string platform;
  /// Self-healing daemon trees enabled for the session (a session option,
  /// not a model decision; recorded so the FE/tools see the effective knob).
  bool heal = false;

  [[nodiscard]] Bytes encode() const;
  static std::optional<TunedConfig> decode(const Bytes& b);
};

/// The unset-vs-explicit knob state auto_tune() resolves.
struct AutoTuneRequest {
  std::optional<comm::LaunchStrategyKind> strategy;  ///< nullopt = model picks
  std::optional<comm::TopologySpec> topology;        ///< nullopt = model picks
  RndvSetting rndv;
  int n_nodes = 1;
  int tasks_per_node = 1;
  std::string platform;  ///< recorded into the TunedConfig (profile name)
};

/// Resolves every knob against `costs` (the selected platform profile).
/// Pure function of its arguments - the engine, the tests and the ablation
/// bench all call the same tuner, which is what makes the bench's
/// "auto matches the best hand-picked configuration" gate meaningful.
[[nodiscard]] TunedConfig auto_tune(const cluster::CostModel& costs,
                                    const AutoTuneRequest& req);

}  // namespace lmon::core
