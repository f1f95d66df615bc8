// Tests for cluster::CostModelRegistry - the named per-platform calibration
// profiles behind the engine's --platform= and its auto-tuner - and for the
// knob-precedence contract of core::auto_tune (explicit > profile > model).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "cluster/cost_model_registry.hpp"
#include "core/auto_tune.hpp"
#include "core/perf_model.hpp"

namespace lmon::cluster {
namespace {

TEST(CostModelRegistry, BuiltinShipsTheTableOnePlatforms) {
  const CostModelRegistry& reg = CostModelRegistry::builtin();
  for (const char* name : {"atlas", "thunder", "zeus", "bluegene"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_TRUE(reg.find(name).has_value()) << name;
  }
  EXPECT_FALSE(reg.contains("asci-q"));
  EXPECT_FALSE(reg.find("asci-q").has_value());
  EXPECT_EQ(reg.names().size(), 4u);

  // Atlas is the defaults; the other platforms genuinely differ in the
  // constants the tuner keys decisions on.
  const CostModel atlas = *reg.find("atlas");
  EXPECT_EQ(atlas.rm_launch_fanout, CostModel{}.rm_launch_fanout);
  EXPECT_EQ(reg.find("thunder")->rm_launch_fanout, 16);
  EXPECT_EQ(reg.find("zeus")->rm_launch_fanout, 64);
  EXPECT_FALSE(reg.find("bluegene")->has_remote_access);
  EXPECT_TRUE(atlas.has_remote_access);
}

TEST(CostModelRegistry, CalibrationTextRoundTrips) {
  const CostModel thunder = thunder_profile();
  const std::string text = CostModelRegistry::calibration_text(thunder);

  CostModel rebuilt;  // defaults (= atlas), then overlay thunder's dump
  const Status st =
      CostModelRegistry::apply_calibration_text(text, rebuilt);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(rebuilt.net_latency, thunder.net_latency);
  EXPECT_EQ(rebuilt.bandwidth_bytes_per_sec,
            thunder.bandwidth_bytes_per_sec);
  EXPECT_EQ(rebuilt.rsh_session_cost, thunder.rsh_session_cost);
  EXPECT_EQ(rebuilt.rm_launch_fanout, thunder.rm_launch_fanout);
  EXPECT_EQ(rebuilt.has_remote_access, thunder.has_remote_access);
  // The emitted text is a fixed point: dump(apply(dump(m))) == dump(m).
  EXPECT_EQ(CostModelRegistry::calibration_text(rebuilt), text);
}

TEST(CostModelRegistry, CalibrationParsesUnitsCommentsAndBlanks) {
  CostModel m;
  const Status st = CostModelRegistry::apply_calibration_text(
      "# site re-fit 2008-03\n"
      "\n"
      "net_latency = 2ms   # was 28us\n"
      "rm_launch_fanout = 12\n"
      "has_remote_access = false\n"
      "iccl_rndv_threshold_bytes = 4096\n",
      m);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(m.net_latency, sim::ms(2));
  EXPECT_EQ(m.rm_launch_fanout, 12);
  EXPECT_FALSE(m.has_remote_access);
  EXPECT_EQ(m.iccl_rndv_threshold_bytes, 4096u);
}

TEST(CostModelRegistry, RejectsGarbageWithLineNumbers) {
  const CostModel pristine;
  struct Case {
    const char* text;
    const char* needle;
  };
  const Case cases[] = {
      {"net_latency = 10us\n\nthis is not a line\n", "line 3"},
      {"no_such_knob = 5\n", "unknown key \"no_such_knob\""},
      {"net_latency = fast\n", "bad value \"fast\""},
      {"net_latency =\n", "empty value"},
      {"= 5\n", "empty key"},
      {"has_remote_access = maybe\n", "bad value \"maybe\""},
  };
  for (const Case& c : cases) {
    CostModel m;
    const Status st = CostModelRegistry::apply_calibration_text(c.text, m);
    EXPECT_FALSE(st.is_ok()) << c.text;
    EXPECT_NE(st.to_string().find(c.needle), std::string::npos)
        << "message \"" << st.to_string() << "\" lacks \"" << c.needle
        << "\"";
    // All-or-nothing: a rejected calibration leaves the model untouched,
    // even when earlier lines were valid.
    EXPECT_EQ(m.net_latency, pristine.net_latency) << c.text;
  }
}

TEST(CostModelRegistry, UnreadableCalibrationFileIsAnError) {
  CostModel m;
  const Status st = CostModelRegistry::apply_calibration_file(
      "/nonexistent/calibration.conf", m);
  EXPECT_FALSE(st.is_ok());
  EXPECT_NE(st.to_string().find("cannot read"), std::string::npos);
}

// --- auto_tune precedence: explicit > profile > model -------------------------

TEST(AutoTunePrecedence, ExplicitKnobsOverrideTheModel) {
  const CostModel costs;
  core::AutoTuneRequest req;
  req.n_nodes = 64;
  req.tasks_per_node = 4;
  // The model would never pick serial-rsh with a flat fabric at 64 nodes;
  // explicit knobs force both and the decision record says so.
  req.strategy = comm::LaunchStrategyKind::SerialRsh;
  req.topology = comm::TopologySpec{comm::TopologyKind::Flat, 0};
  req.rndv = {core::RndvSetting::Mode::Bytes, 12345};
  const core::TunedConfig cfg = core::auto_tune(costs, req);
  EXPECT_EQ(cfg.strategy, comm::LaunchStrategyKind::SerialRsh);
  EXPECT_EQ(cfg.topology.kind, comm::TopologyKind::Flat);
  EXPECT_EQ(cfg.rndv_threshold, 12345u);
  EXPECT_FALSE(cfg.strategy_from_model);
  EXPECT_FALSE(cfg.topology_from_model);
  EXPECT_FALSE(cfg.rndv_from_model);
}

TEST(AutoTunePrecedence, ProfileDefaultBeatsModelWhenAskedFor) {
  // "platform-default" pins the profile's threshold even where the model's
  // crossover would choose differently; "auto" consults the model.
  const CostModel thunder = thunder_profile();
  core::AutoTuneRequest req;
  req.n_nodes = 64;
  req.tasks_per_node = 4;
  req.rndv = {core::RndvSetting::Mode::PlatformDefault, 0};
  const core::TunedConfig pinned = core::auto_tune(thunder, req);
  EXPECT_EQ(pinned.rndv_threshold, thunder.iccl_rndv_threshold_bytes);
  EXPECT_FALSE(pinned.rndv_from_model);

  req.rndv = {core::RndvSetting::Mode::Auto, 0};
  const core::TunedConfig modeled = core::auto_tune(thunder, req);
  EXPECT_TRUE(modeled.rndv_from_model);
  // Model-driven: either the solved crossover or the eager pin (no
  // crossover in the probe range) - never the old 0 sentinel.
  EXPECT_NE(modeled.rndv_threshold, 0u);
}

TEST(AutoTunePrecedence, ModelSkipsPredictedFailureStrategies) {
  // On a no-remote-access machine every rsh flavor predicts failure; the
  // tuner must land on rm-bulk without being told.
  const CostModel bg = CostModel::bluegene_like();
  core::AutoTuneRequest req;
  req.n_nodes = 512;
  req.tasks_per_node = 8;
  const core::TunedConfig cfg = core::auto_tune(bg, req);
  EXPECT_EQ(cfg.strategy, comm::LaunchStrategyKind::RmBulk);
  EXPECT_TRUE(cfg.strategy_from_model);
  const core::PerfModel model(
      bg, static_cast<std::uint32_t>(bg.rm_launch_fanout));
  EXPECT_FALSE(model.predicts_failure(cfg.strategy, req.n_nodes));
}

TEST(AutoTunePrecedence, RndvSettingSpellingsRoundTrip) {
  using M = core::RndvSetting::Mode;
  for (const char* spelling :
       {"auto", "platform-default", "always-eager", "always-rndv", "65536"}) {
    const auto parsed = core::RndvSetting::parse(spelling);
    ASSERT_TRUE(parsed.has_value()) << spelling;
    EXPECT_EQ(parsed->to_string(), spelling);
  }
  // "0" was the legacy "platform default" sentinel; it parses to the mode
  // with that meaning instead of resurrecting an eager-always-unreachable
  // threshold of zero.
  const auto zero = core::RndvSetting::parse("0");
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->mode, M::PlatformDefault);
  EXPECT_FALSE(core::RndvSetting::parse("sometimes").has_value());
  EXPECT_FALSE(core::RndvSetting::parse("").has_value());
  EXPECT_FALSE(core::RndvSetting::parse("12cows").has_value());
}

TEST(AutoTunePrecedence, TunedConfigEncodeDecodeRoundTrips) {
  core::TunedConfig cfg;
  cfg.strategy = comm::LaunchStrategyKind::TreeRsh;
  cfg.topology = {comm::TopologyKind::Binomial, 7};
  cfg.rndv_threshold = std::numeric_limits<std::uint32_t>::max();
  cfg.strategy_from_model = true;
  cfg.rndv_from_model = true;
  cfg.predicted_total_s = 1.25;
  cfg.bcast_crossover = 101254;
  cfg.platform = "thunder";
  const auto decoded = core::TunedConfig::decode(cfg.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->strategy, cfg.strategy);
  EXPECT_EQ(decoded->topology, cfg.topology);
  EXPECT_EQ(decoded->rndv_threshold, cfg.rndv_threshold);
  EXPECT_EQ(decoded->strategy_from_model, cfg.strategy_from_model);
  EXPECT_EQ(decoded->topology_from_model, cfg.topology_from_model);
  EXPECT_EQ(decoded->rndv_from_model, cfg.rndv_from_model);
  EXPECT_DOUBLE_EQ(decoded->predicted_total_s, cfg.predicted_total_s);
  EXPECT_EQ(decoded->bcast_crossover, cfg.bcast_crossover);
  EXPECT_EQ(decoded->platform, cfg.platform);
  // Garbage does not decode.
  EXPECT_FALSE(core::TunedConfig::decode(Bytes{1, 2, 3}).has_value());
}

}  // namespace
}  // namespace lmon::cluster
