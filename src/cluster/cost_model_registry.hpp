// cost_model_registry.hpp - named per-platform calibration profiles.
//
// The CostModel defaults are fit to the paper's Atlas measurements, but the
// paper's point (and ours) is that the right launch/collective configuration
// is platform-dependent: the Table 1 clusters differ in interconnect,
// rsh behavior, and RM launch characteristics, and BlueGene-class machines
// have no remote access at all. The registry gives every calibration a name
// so one binary adapts to any machine:
//
//   * shipped profiles: atlas (the defaults), thunder, zeus (Table 1
//     platforms), bluegene (CostModel::bluegene_like());
//   * sessions select one by name (SpawnConfig::platform_profile -> the
//     engine's --platform=), and the engine's auto-tuner consults the
//     selected profile's constants instead of the machine defaults;
//   * a key=value calibration file can override any constant on top of a
//     profile, so a site can re-fit without recompiling.
//
// The profile changes *model-driven decisions* (auto-tuned strategy,
// topology and the rendezvous threshold every daemon is handed); the
// simulated machine keeps charging its own configured costs, which is what
// lets tests pit a mis-calibrated profile against reality.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cost_model.hpp"
#include "common/status.hpp"

namespace lmon::cluster {

class CostModelRegistry {
 public:
  /// The registry of shipped profiles (atlas, thunder, zeus, bluegene).
  /// Built once; treat as immutable.
  [[nodiscard]] static const CostModelRegistry& builtin();

  /// Profile by name, or nullopt for unknown names.
  [[nodiscard]] std::optional<CostModel> find(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const;
  /// Registered profile names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  void add(std::string name, CostModel model);

  // --- calibration files ----------------------------------------------------
  // Format: one "key = value" per line; '#' starts a comment; blank lines
  // ignored. Keys are the CostModel field names (e.g. rsh_session_cost,
  // bandwidth_bytes_per_sec). Time values take an optional ns/us/ms/s
  // suffix (bare numbers are microseconds); bools take true/false/1/0.
  // Unknown keys and malformed lines are rejected with their 1-based line
  // number so a typo cannot silently mis-calibrate a platform.

  /// Applies calibration overrides onto `model` in place.
  [[nodiscard]] static Status apply_calibration_text(std::string_view text,
                                                     CostModel& model);
  /// Reads `path` and applies it onto `model` in place.
  [[nodiscard]] static Status apply_calibration_file(const std::string& path,
                                                     CostModel& model);

  /// Every calibration key of `model` as "key = value" lines; the exact
  /// inverse of apply_calibration_text (round-trip identity, times in ns).
  [[nodiscard]] static std::string calibration_text(const CostModel& model);

 private:
  std::map<std::string, CostModel, std::less<>> profiles_;
};

// --- shipped Table 1 profiles --------------------------------------------------
/// Atlas: the CostModel defaults (every constant in cost_model.hpp is fit to
/// the paper's Atlas measurement points), named so sessions can request it
/// explicitly.
[[nodiscard]] CostModel atlas_profile();
/// Thunder: the older Itanium cluster - slower interconnect and rsh stack,
/// shallower RM launch fan-out.
[[nodiscard]] CostModel thunder_profile();
/// Zeus: the newer commodity capacity cluster - faster session setup, wider
/// RM fan-out, slightly lower effective bandwidth than Atlas's IB.
[[nodiscard]] CostModel zeus_profile();

}  // namespace lmon::cluster
