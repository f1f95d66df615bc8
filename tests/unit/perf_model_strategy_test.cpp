// Tests for the per-strategy launch cost model family (paper §2/§4,
// Figure 4): serial-rsh is linear in n, tree-rsh is depth-dominated
// (O(k log_k n) serialized sessions), rm-bulk is ~flat by comparison, the
// crossover solver finds analytic roots, and every strategy's prediction
// tracks the simulated implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>

#include "bench/ablation_iccl_lib.hpp"
#include "bench/ablation_rsh_lib.hpp"
#include "core/fe_api.hpp"
#include "core/perf_model.hpp"
#include "tests/test_util.hpp"

namespace lmon::core {
namespace {

constexpr auto kSerial = comm::LaunchStrategyKind::SerialRsh;
constexpr auto kTree = comm::LaunchStrategyKind::TreeRsh;
constexpr auto kRm = comm::LaunchStrategyKind::RmBulk;

comm::TopologySpec kary(std::uint32_t k) {
  return comm::TopologySpec{comm::TopologyKind::KAry, k};
}

/// A cost model where only the rsh session constant is nonzero: every
/// strategy total becomes an exact multiple of S, so crossovers have
/// hand-derivable analytic roots.
cluster::CostModel session_only_costs() {
  cluster::CostModel c = cluster::CostModel{}.deterministic();
  c.fork_cost = 0;
  c.exec_base_cost = 0;
  c.exec_per_mb = 0;
  c.sched_latency = 0;
  c.net_latency = 0;
  c.local_latency = 0;
  c.bandwidth_bytes_per_sec = 1e18;
  c.connect_cost = 0;
  c.proc_read_cost = 0;
  c.trace_attach_cost = 0;
  c.trace_event_latency = 0;
  c.mem_read_base = 0;
  c.mem_read_per_kb = 0;
  c.rsh_client_fork = 0;
  c.rshd_spawn_cost = 0;
  c.rm_controller_rpc = 0;
  c.rm_allocate_cost = 0;
  c.rm_slurmd_handle = 0;
  c.rm_task_setup = 0;
  c.rm_launcher_per_node = 0;
  c.rm_launcher_startup = 0;
  c.rm_quadratic_ns_per_node2 = 0;
  c.rm_debug_events = 0;
  c.engine_handler_cost = 0;
  c.engine_fixed_cost = 0;
  c.fabric_endpoint_init = 0;
  c.iccl_msg_handle = 0;
  c.rsh_session_cost = sim::ms(100);
  return c;
}

TEST(PerStrategyModel, OnlyTDaemonDependsOnTheStrategy) {
  const cluster::CostModel costs;
  PerfModel m(costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  const auto serial = m.predict(kSerial, kary(8), 64, 4);
  const auto tree = m.predict(kTree, kary(8), 64, 4);
  const auto rm = m.predict(kRm, kary(8), 64, 4);
  // Shared calibration constants: every non-T(daemon) term is identical.
  EXPECT_DOUBLE_EQ(serial.t_job, tree.t_job);
  EXPECT_DOUBLE_EQ(serial.t_job, rm.t_job);
  EXPECT_DOUBLE_EQ(serial.t_setup, tree.t_setup);
  EXPECT_DOUBLE_EQ(serial.t_collective, rm.t_collective);
  EXPECT_DOUBLE_EQ(serial.handshake, tree.handshake);
  EXPECT_DOUBLE_EQ(serial.tracing, rm.tracing);
  EXPECT_DOUBLE_EQ(serial.other, tree.other);
  // And T(daemon) orders the strategies the paper's way.
  EXPECT_GT(serial.t_daemon, tree.t_daemon);
  EXPECT_GT(tree.t_daemon, rm.t_daemon);
}

TEST(PerStrategyModel, SerialRshIsLinearInN) {
  const cluster::CostModel costs;
  PerfModel m(costs, 32);
  const double at64 = m.predict(kSerial, kary(0), 64, 1).t_daemon;
  const double at128 = m.predict(kSerial, kary(0), 128, 1).t_daemon;
  const double at256 = m.predict(kSerial, kary(0), 256, 1).t_daemon;
  // Constant per-node slope (the host list's transfer term is negligible).
  EXPECT_NEAR(at128 / at64, 2.0, 0.01);
  EXPECT_NEAR(at256 / at64, 4.0, 0.01);
  // And the slope is the paper's ~0.24 s per target.
  EXPECT_NEAR(at64 / 64.0, 0.237, 0.02);
}

TEST(PerStrategyModel, TreeRshIsDepthDominated) {
  const cluster::CostModel costs = session_only_costs();
  PerfModel m(costs, 32);
  const double s = sim::to_seconds(costs.rsh_session_cost);
  const std::uint32_t k = 8;
  // At n = k^d the critical path is ~depth levels of k serialized
  // sessions: O(k log_k n), far below serial's O(n).
  for (int d : {1, 2, 3}) {
    double n = 1;
    for (int i = 0; i < d; ++i) n *= k;
    const double t = m.predict(kTree, kary(k), static_cast<int>(n), 1)
                         .t_daemon;
    EXPECT_GE(t, 0.5 * d * k * s) << "n=" << n;
    EXPECT_LE(t, 2.0 * d * k * s) << "n=" << n;
  }
  // Doubling depth adds ~one level, not ~k x the cost: strongly sublinear.
  const double t64 = m.predict(kTree, kary(k), 64, 1).t_daemon;
  const double t512 = m.predict(kTree, kary(k), 512, 1).t_daemon;
  EXPECT_LT(t512 / t64, 2.0);
  // While serial grows 8x over the same span.
  const double s64 = m.predict(kSerial, kary(k), 64, 1).t_daemon;
  const double s512 = m.predict(kSerial, kary(k), 512, 1).t_daemon;
  EXPECT_NEAR(s512 / s64, 8.0, 0.01);
}

TEST(PerStrategyModel, RmBulkIsFlattest) {
  const cluster::CostModel costs;
  PerfModel m(costs, 32);
  // Per-added-node cost: the RM's bookkeeping is ~1000x cheaper than one
  // rsh session, which is what makes Figure 4's rm-bulk curve look flat.
  const double rm_slope = (m.predict(kRm, kary(0), 1024, 1).t_daemon -
                           m.predict(kRm, kary(0), 64, 1).t_daemon) /
                          960.0;
  const double serial_slope = (m.predict(kSerial, kary(0), 256, 1).t_daemon -
                               m.predict(kSerial, kary(0), 64, 1).t_daemon) /
                              192.0;
  EXPECT_LT(rm_slope, 0.005);
  EXPECT_NEAR(serial_slope, 0.237, 0.02);
  EXPECT_LT(rm_slope * 40.0, serial_slope);
  // Totals: rm-bulk beats tree-rsh by ~an order of magnitude at 512.
  EXPECT_LT(m.predict(kRm, kary(8), 512, 1).total() * 2.0,
            m.predict(kTree, kary(8), 512, 1).total());
}

TEST(PerStrategyModel, CrossoverMatchesAnalyticRootOnSyntheticConstants) {
  // With only the session constant S alive, serial costs n*S total while
  // the tree (k=2) costs 2S at n=2,3 (two root chunks, depth folded into
  // the idle first chunk): the analytic crossover is n=3, where 2S < 3S
  // first holds strictly.
  const cluster::CostModel costs = session_only_costs();
  PerfModel m(costs, 2);
  const auto tree_over_serial = m.crossover(kTree, kSerial, kary(2), 1, 512);
  ASSERT_TRUE(tree_over_serial.has_value());
  EXPECT_NEAR(*tree_over_serial, 3, 1);
  // rm-bulk costs zero here, so it wins as soon as serial pays anything.
  const auto rm_over_serial = m.crossover(kRm, kSerial, kary(2), 1, 512);
  ASSERT_TRUE(rm_over_serial.has_value());
  EXPECT_EQ(*rm_over_serial, 2);
  const auto rm_over_tree = m.crossover(kRm, kTree, kary(2), 1, 512);
  ASSERT_TRUE(rm_over_tree.has_value());
  EXPECT_EQ(*rm_over_tree, 2);
}

TEST(PerStrategyModel, CrossoverNeverReachedIsNullopt) {
  const cluster::CostModel costs = session_only_costs();
  PerfModel m(costs, 2);
  // Serial never overtakes the tree.
  EXPECT_FALSE(m.crossover(kSerial, kTree, kary(2), 1, 256).has_value());
}

// --- collective protocol family (eager vs rendezvous) ------------------------

constexpr auto kEager = core::CollectiveProtocol::Eager;
constexpr auto kRndv = core::CollectiveProtocol::Rendezvous;

const std::vector<comm::TopologySpec> kCollectiveFabrics = {
    kary(2), kary(8),
    comm::TopologySpec{comm::TopologyKind::Binomial, 0},
    comm::TopologySpec{comm::TopologyKind::Flat, 0}};

TEST(CollectiveModel, EagerGrowsWithPayloadAndDegenerateCasesAreFree) {
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  PerfModel m(costs, 32);
  EXPECT_EQ(m.collective_bcast(kEager, kary(2), 1, 1 << 20), 0.0);
  EXPECT_EQ(m.collective_bcast(kRndv, kary(2), 1, 1 << 20), 0.0);
  for (const auto& spec : kCollectiveFabrics) {
    double prev = 0.0;
    for (std::size_t s : {1u << 10, 64u << 10, 1u << 20, 4u << 20}) {
      const double t = m.collective_bcast(kEager, spec, 32, s);
      EXPECT_GT(t, prev) << spec.to_string() << " payload " << s;
      prev = t;
    }
  }
}

TEST(CollectiveModel, RendezvousWinsLargePayloadsOnEveryFabric) {
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  PerfModel m(costs, 32);
  for (const auto& spec : kCollectiveFabrics) {
    const double eager = m.collective_bcast(kEager, spec, 32, 4u << 20);
    const double rndv = m.collective_bcast(kRndv, spec, 32, 4u << 20);
    EXPECT_LT(rndv, eager) << spec.to_string();
  }
}

TEST(CollectiveModel, EagerWinsSmallPayloadsOnEveryFabric) {
  // The RTS/CTS round trip plus per-chunk overheads must not pay off for a
  // payload the eager path ships in one cheap frame.
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  PerfModel m(costs, 32);
  for (const auto& spec : kCollectiveFabrics) {
    const double eager = m.collective_bcast(kEager, spec, 32, 1u << 10);
    const double rndv = m.collective_bcast(kRndv, spec, 32, 1u << 10);
    EXPECT_LT(eager, rndv) << spec.to_string();
  }
}

TEST(CollectiveModel, CrossoverSeparatesTheRegimes) {
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  PerfModel m(costs, 32);
  for (const auto& spec : kCollectiveFabrics) {
    const auto cross = m.collective_crossover(spec, 32, 16u << 20);
    ASSERT_TRUE(cross.has_value()) << spec.to_string();
    // Rendezvous stays cheaper from the crossover on (probe a few points).
    for (double mult : {1.1, 2.0, 8.0}) {
      const auto s = static_cast<std::size_t>(
          static_cast<double>(*cross) * mult);
      EXPECT_LT(m.collective_bcast(kRndv, spec, 32, s),
                m.collective_bcast(kEager, spec, 32, s))
          << spec.to_string() << " payload " << s;
    }
    // And eager won at the smallest modeled payload (the crossover is real).
    EXPECT_GT(*cross, 1024u) << spec.to_string();
  }
}

TEST(CollectiveModel, RendezvousReplayIsPinnedToTheRecordedValues) {
  // Exact doubles: the auto-tuner's crossover scan runs this replay on
  // every launch, so a reordered replay must fail here, not drift.
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  PerfModel m(costs, 32);
  EXPECT_EQ(m.collective_crossover(kary(8), 512, 4u << 20), 26213u);
  EXPECT_EQ(m.collective_bcast(kRndv, kary(8), 512, 4u << 20),
            0.044799720000000001);
  EXPECT_EQ(m.collective_bcast(kRndv, kary(8), 512, 100000),
            0.015013825999999999);
  EXPECT_EQ(m.collective_bcast(kRndv, kary(2), 32, 300001),
            0.0063016779999999998);
  EXPECT_EQ(m.collective_bcast(
                kRndv, comm::TopologySpec{comm::TopologyKind::Binomial, 0},
                512, 1u << 20),
            0.029584473999999999);
  EXPECT_EQ(m.collective_bcast(
                kRndv, comm::TopologySpec{comm::TopologyKind::Flat, 0}, 64,
                1u << 20),
            0.099069671999999998);
  // A zero-byte payload is the RTS/CTS wave alone.
  EXPECT_EQ(m.collective_bcast(kRndv, kary(8), 512, 0), 0.013335072);
}

TEST(CollectiveModel, CrossoverGridIsPinnedToTheRecordedValues) {
  // Crossovers recorded from a replay that streamed every chunk through
  // every rank, over auto_tune's probe range (256 chunk segments, at most
  // 4 MiB). Each row's chunk handle is a quarter of the chunk's wire time,
  // so a short last chunk can catch up with the full one before it and the
  // per-channel FIFO clamp decides its arrival. 0 stands for nullopt (eager
  // wins at the max); flat 512 at 100 B crosses over from the 1 KiB floor.
  const std::array<comm::TopologySpec, 5> fabrics = {
      kary(2), kary(8), kary(32),
      comm::TopologySpec{comm::TopologyKind::Binomial, 0},
      comm::TopologySpec{comm::TopologyKind::Flat, 0}};
  constexpr std::array<int, 5> kNodes = {2, 3, 33, 128, 512};
  struct Row {
    std::uint32_t chunk;
    sim::Time chunk_handle;
    std::array<std::array<std::size_t, 5>, 5> cross;  // [fabric][node count]
  };
  const std::array<Row, 3> rows = {{
      {64u << 10, 13653,
       {{{288834, 172257, 39578, 25987, 19345},
         {288834, 172257, 35813, 24912, 17907},
         {288834, 172257, 18031, 16760, 12428},
         {288834, 172257, 21566, 11790, 7442},
         {288834, 172257, 18031, 9772, 7682}}}},
      {4u << 10, 853,
       {{{268967, 160407, 37400, 24749, 18493},
         {268967, 160407, 32295, 22252, 15842},
         {268967, 160407, 12624, 11379, 8438},
         {268967, 160407, 20853, 11498, 7286},
         {268967, 160407, 12624, 3219, 1128}}}},
      {100, 20,
       {{{0, 0, 0, 24615, 18396},
         {0, 0, 0, 22039, 15733},
         {0, 0, 12129, 11191, 8114},
         {0, 0, 20748, 11442, 7250},
         {0, 0, 12129, 3090, 1024}}}},
  }};
  for (const Row& row : rows) {
    cluster::CostModel costs = cluster::CostModel{}.deterministic();
    costs.iccl_rndv_chunk_bytes = row.chunk;
    costs.iccl_chunk_handle = row.chunk_handle;
    PerfModel m(costs, 32);
    const std::size_t max_payload =
        std::min<std::size_t>(4u << 20, std::size_t{row.chunk} * 256);
    for (std::size_t f = 0; f < fabrics.size(); ++f) {
      for (std::size_t i = 0; i < kNodes.size(); ++i) {
        EXPECT_EQ(m.collective_crossover(fabrics[f], kNodes[i], max_payload)
                      .value_or(0),
                  row.cross[f][i])
            << fabrics[f].to_string() << " n=" << kNodes[i]
            << " chunk=" << row.chunk;
      }
    }
  }
}

TEST(CollectiveModel, DeepTreesCrossOverBeforeFlatFanOut) {
  // Rendezvous' chunk pipeline pays off per level, so the deep binary tree
  // switches at a smaller payload than the serialization-bound flat tree.
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  PerfModel m(costs, 32);
  const auto deep = m.collective_crossover(kary(2), 32);
  const auto flat = m.collective_crossover(
      comm::TopologySpec{comm::TopologyKind::Flat, 0}, 32);
  ASSERT_TRUE(deep.has_value());
  ASSERT_TRUE(flat.has_value());
  EXPECT_LT(*deep, *flat);
}

TEST(CollectiveModel, LandsOnTheSimulatedBroadcastToTheNanosecond) {
  // Same jitter-free harness as bench_ablation_iccl: every (protocol,
  // payload) point of a toy sweep equals the replay exactly.
  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  PerfModel m(costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  const comm::TopologySpec spec = kary(2);
  const std::vector<std::size_t> payloads = {4u << 10, 1u << 20};
  const auto eager = bench::measure_bcast_sweep(
      spec, 8, std::numeric_limits<std::uint32_t>::max(), payloads);
  const auto rndv = bench::measure_bcast_sweep(spec, 8, 1, payloads);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_GT(eager[i], 0.0);
    ASSERT_GT(rndv[i], 0.0);
    EXPECT_EQ(m.collective_bcast(kEager, spec, 8, payloads[i]), eager[i])
        << "eager payload " << payloads[i];
    EXPECT_EQ(m.collective_bcast(kRndv, spec, 8, payloads[i]), rndv[i])
        << "rendezvous payload " << payloads[i];
  }
}

TEST(PerStrategyModel, PredictsFailureAtTheForkLimit) {
  const cluster::CostModel costs;
  PerfModel m(costs, 32);
  EXPECT_FALSE(m.predicts_failure(kSerial, costs.rsh_fork_limit));
  EXPECT_TRUE(m.predicts_failure(kSerial, costs.rsh_fork_limit + 1));
  EXPECT_TRUE(m.predicts_failure(kSerial, 512));
  EXPECT_FALSE(m.predicts_failure(kSerial, 256));
  for (int n : {256, 512, 4096}) {
    EXPECT_FALSE(m.predicts_failure(kTree, n));
    EXPECT_FALSE(m.predicts_failure(kRm, n));
  }
}

/// Per-strategy Figure 3/4 validation: every strategy's model tracks the
/// jitter-free simulated implementation tightly.
struct ValidationCase {
  comm::LaunchStrategyKind strategy;
  comm::TopologySpec fabric;
  int nodes;
};

class PerStrategyValidation
    : public ::testing::TestWithParam<ValidationCase> {};

TEST_P(PerStrategyValidation, TracksSimulationWithinTolerance) {
  const auto [strategy, fabric, nodes] = GetParam();
  const int tpn = 2;
  // Same jitter-free harness as bench_ablation_rsh: the model validates
  // against the identical measurement protocol the bench gates on.
  const double measured =
      bench::measure_launch_and_spawn(strategy, fabric, nodes, tpn);
  ASSERT_GT(measured, 0.0) << comm::to_string(strategy);

  const cluster::CostModel costs = cluster::CostModel{}.deterministic();
  const PerfModel model(costs,
                        static_cast<std::uint32_t>(costs.rm_launch_fanout));
  const double predicted = model.predict(strategy, fabric, nodes, tpn).total();
  EXPECT_NEAR(predicted / measured, 1.0, 0.05)
      << comm::to_string(strategy) << " model " << predicted
      << "s vs measured " << measured << "s at " << nodes << " daemons";
}

INSTANTIATE_TEST_SUITE_P(
    Fig4Sweep, PerStrategyValidation,
    ::testing::Values(ValidationCase{kSerial, kary(0), 16},
                      ValidationCase{kSerial, kary(0), 48},
                      ValidationCase{kTree, kary(8), 16},
                      ValidationCase{kTree, kary(8), 64},
                      ValidationCase{kTree, kary(2), 32},
                      ValidationCase{kRm, kary(0), 64},
                      ValidationCase{kRm, kary(0), 128}),
    [](const ::testing::TestParamInfo<ValidationCase>& pinfo) {
      std::string name =
          std::string(comm::to_string(pinfo.param.strategy)) + "_" +
          pinfo.param.fabric.to_string() + "_n" +
          std::to_string(pinfo.param.nodes);
      for (char& c : name) {
        if (c == ':' || c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace lmon::core
