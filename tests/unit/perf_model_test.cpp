// Tests for the §4 analytic model, including validation against the
// simulated implementation (the paper's Figure 3 comparison as an assertion).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cost_model_registry.hpp"
#include "core/auto_tune.hpp"
#include "core/fe_api.hpp"
#include "core/perf_model.hpp"
#include "tests/test_util.hpp"

namespace lmon::core {
namespace {

TEST(PerfModel, DepthMatchesTreeGeometry) {
  const cluster::CostModel costs;
  PerfModel m(costs, 32);
  EXPECT_EQ(m.depth(1), 0);
  EXPECT_EQ(m.depth(2), 1);
  EXPECT_EQ(m.depth(32), 1);
  EXPECT_EQ(m.depth(33), 2);
  EXPECT_EQ(m.depth(1024), 2);
  EXPECT_EQ(m.depth(1025), 3);
  PerfModel bin(costs, 2);
  EXPECT_EQ(bin.depth(8), 3);
  EXPECT_EQ(bin.depth(9), 4);
}

TEST(PerfModel, TotalsGrowMonotonically) {
  const cluster::CostModel costs;
  PerfModel m(costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  double prev = 0;
  for (int n : {16, 32, 64, 128, 256, 512, 1024}) {
    const double total = m.predict(n, 8).total();
    EXPECT_GT(total, prev) << "at n=" << n;
    prev = total;
  }
}

TEST(PerfModel, ScaleIndependentTermsAreConstant) {
  const cluster::CostModel costs;
  PerfModel m(costs, 32);
  const auto small = m.predict(16, 8);
  const auto large = m.predict(1024, 8);
  EXPECT_DOUBLE_EQ(small.tracing, large.tracing);
  EXPECT_DOUBLE_EQ(small.other, large.other);
  // Paper: tracing 18 ms, other 12 ms (plus engine spawn/connect in ours).
  EXPECT_NEAR(small.tracing, 0.018, 1e-9);
  EXPECT_GT(small.other, 0.012);
}

TEST(PerfModel, LaunchmonShareShrinksWithScale) {
  const cluster::CostModel costs;
  PerfModel m(costs, 32);
  // The RM terms grow with n while LaunchMON's stay near-constant, so the
  // share falls - the paper's headline scalability claim.
  EXPECT_GT(m.predict(16, 8).launchmon_share(),
            m.predict(128, 8).launchmon_share());
  // And at 128 daemons it is in the paper's ~5% neighbourhood.
  EXPECT_LT(m.predict(128, 8).launchmon_share(), 0.10);
  EXPECT_GT(m.predict(128, 8).launchmon_share(), 0.02);
}

/// The Figure 3 validation: model vs simulated measurement within
/// tolerance across the paper's sweep.
class ModelValidation : public ::testing::TestWithParam<int> {};

TEST_P(ModelValidation, PredictsMeasuredTotalWithinTolerance) {
  const int ndaemons = GetParam();
  const int tpn = 8;

  lmon::testing::TestCluster tc(ndaemons);
  sim::Timeline timeline;
  tc.machine.set_timeline(&timeline);

  bool done = false;
  Status status;
  std::shared_ptr<FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{ndaemons, tpn, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status st) {
      status = st;
      done = true;
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }));
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  const double measured =
      sim::to_seconds(timeline.between("e0_fe_call", "e11_return"));
  const cluster::CostModel costs;
  PerfModel model(costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  const double predicted = model.predict(ndaemons, tpn).total();

  EXPECT_NEAR(predicted / measured, 1.0, 0.25)
      << "model " << predicted << "s vs measured " << measured << "s at "
      << ndaemons << " daemons";
}

INSTANTIATE_TEST_SUITE_P(Fig3Sweep, ModelValidation,
                         ::testing::Values(16, 48, 96, 128, 256));

// --- gather replay oracle ------------------------------------------------------
//
// The reference below is the straightforward form of the gather replay: each
// relay concatenates its own chunks and every child's arrival stream and
// stable-sorts them by ready time. PerfModel merges the same streams in
// linear passes instead; the two must agree to the nanosecond.

constexpr double kRefFrameBytes = 13.0;
constexpr double kRefEntryBytes = 8.0;

sim::Time ref_scaled_per_kb(sim::Time per_kb, double bytes) {
  return static_cast<sim::Time>(static_cast<double>(per_kb) * bytes /
                                1024.0);
}

double ref_collective_gather(const cluster::CostModel& costs,
                             CollectiveProtocol proto,
                             const comm::TopologySpec& spec, int n,
                             std::size_t payload_bytes) {
  if (n <= 1) return 0.0;
  comm::TopologySpec resolved = spec;
  if (resolved.kind == comm::TopologyKind::KAry && resolved.arity == 0) {
    resolved.arity = static_cast<std::uint32_t>(costs.rm_launch_fanout);
  }
  const comm::Topology topo(resolved, static_cast<std::uint32_t>(n));
  const sim::Time L = costs.net_latency;
  const sim::Time h = costs.iccl_msg_handle;
  const double bw = costs.bandwidth_bytes_per_sec;
  auto wire = [&](double bytes) {
    return L + static_cast<sim::Time>(bytes / bw * 1e9);
  };
  const double S = static_cast<double>(payload_bytes);
  const auto nn = static_cast<std::uint32_t>(n);

  std::vector<sim::Time> A(nn, 0);
  const sim::Time frame_wire = wire(kRefFrameBytes + kRefEntryBytes);
  for (std::uint32_t r = 0; r < nn; ++r) {
    const auto children = topo.children_of(r);
    for (std::size_t i = 0; i < children.size(); ++i) {
      A[children[i]] = A[r] + static_cast<sim::Time>(i) * h + frame_wire + h;
    }
  }
  std::vector<std::uint32_t> sz(nn, 1);
  for (std::uint32_t r = nn - 1; r >= 1; --r) sz[*topo.parent_of(r)] += sz[r];

  if (proto == CollectiveProtocol::Eager || payload_bytes == 0) {
    std::vector<sim::Time> U(nn, 0);
    for (std::uint32_t r = nn; r-- > 0;) {
      sim::Time t = A[r];
      for (std::uint32_t c : topo.children_of(r)) {
        const double entry_bytes =
            static_cast<double>(sz[c]) * (kRefEntryBytes + S);
        t = std::max(t, U[c] + wire(kRefFrameBytes + entry_bytes) + h +
                            ref_scaled_per_kb(costs.iccl_eager_copy_per_kb,
                                              static_cast<double>(sz[c]) * S));
      }
      U[r] = t;
    }
    return sim::to_seconds(U[0]);
  }

  const std::uint32_t C = costs.iccl_rndv_chunk_bytes;
  const sim::Time c_h = costs.iccl_chunk_handle;
  const sim::Time cts_wire = wire(kRefFrameBytes);
  std::vector<sim::Time> R(nn, 0);
  std::vector<sim::Time> rts_arr(nn, 0);
  for (std::uint32_t r = nn; r-- > 0;) {
    sim::Time t = A[r];
    for (std::uint32_t c : topo.children_of(r)) {
      rts_arr[c] = R[c] + wire(kRefFrameBytes + 12.0 * sz[c]);
      t = std::max(t, rts_arr[c] + h);
    }
    R[r] = t;
  }
  std::vector<sim::Time> G(nn, 0);
  for (std::uint32_t r = 0; r < nn; ++r) {
    const auto children = topo.children_of(r);
    for (std::size_t i = 0; i < children.size(); ++i) {
      const sim::Time depart = r == 0 ? rts_arr[children[i]] + h
                                      : G[r] + static_cast<sim::Time>(i) * h;
      G[children[i]] = depart + cts_wire + h;
    }
  }
  const auto m = static_cast<std::uint32_t>((payload_bytes + C - 1) / C);
  auto chunk_size = [&](std::uint32_t j) {
    return j + 1 == m ? S - static_cast<double>(j) * C
                      : static_cast<double>(C);
  };
  std::vector<std::vector<std::pair<sim::Time, double>>> sched(nn);
  for (std::uint32_t r = nn; r-- > 1;) {
    std::vector<std::pair<sim::Time, double>> ready;
    for (std::uint32_t j = 0; j < m; ++j) ready.emplace_back(G[r], chunk_size(j));
    for (std::uint32_t c : topo.children_of(r)) {
      sim::Time last_arrival = rts_arr[c];
      for (const auto& [dep, bytes] : sched[c]) {
        sim::Time arr = dep + wire(kRefFrameBytes + kRefEntryBytes + bytes);
        if (arr <= last_arrival) arr = last_arrival + 1;
        last_arrival = arr;
        ready.emplace_back(arr + c_h, bytes);
      }
    }
    std::stable_sort(ready.begin(), ready.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    sim::Time cursor = 0;
    for (const auto& [t, bytes] : ready) {
      const sim::Time depart = std::max(cursor, t);
      sched[r].emplace_back(depart, bytes);
      cursor = depart + c_h;
    }
  }
  sim::Time done = R[0];
  for (std::uint32_t c : topo.children_of(0)) {
    sim::Time last_arrival = rts_arr[c];
    for (const auto& [dep, bytes] : sched[c]) {
      sim::Time arr = dep + wire(kRefFrameBytes + kRefEntryBytes + bytes);
      if (arr <= last_arrival) arr = last_arrival + 1;
      last_arrival = arr;
      done = std::max(done, arr + c_h);
    }
  }
  return sim::to_seconds(done);
}

/// Reference crossover: the same chunk-segment probe geometry as
/// PerfModel's solvers, over the reference replay.
std::optional<std::size_t> ref_gather_crossover(
    const cluster::CostModel& costs, const comm::TopologySpec& spec, int n,
    std::size_t max_payload) {
  constexpr std::size_t kMin = 1024;
  if (max_payload < kMin) return std::nullopt;
  const std::size_t C = costs.iccl_rndv_chunk_bytes;
  std::vector<std::size_t> probes{kMin};
  for (std::size_t m = kMin / C;; ++m) {
    const std::size_t begin = m * C + 1;
    if (begin > max_payload) break;
    const std::size_t end = (m + 1) * C;
    if (begin > kMin) probes.push_back(begin);
    if (end > kMin && end <= max_payload) probes.push_back(end);
  }
  if (probes.back() != max_payload) probes.push_back(max_payload);
  auto gap = [&](std::size_t s) {
    return ref_collective_gather(costs, CollectiveProtocol::Eager, spec, n,
                                 s) -
           ref_collective_gather(costs, CollectiveProtocol::Rendezvous, spec,
                                 n, s);
  };
  std::vector<double> f(probes.size());
  std::ptrdiff_t last_loss = -1;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    f[i] = gap(probes[i]);
    if (f[i] <= 0.0) last_loss = static_cast<std::ptrdiff_t>(i);
  }
  if (last_loss < 0) return kMin;
  if (last_loss + 1 == static_cast<std::ptrdiff_t>(probes.size())) {
    return std::nullopt;
  }
  const auto i = static_cast<std::size_t>(last_loss);
  const double p0 = static_cast<double>(probes[i]);
  const double p1 = static_cast<double>(probes[i + 1]);
  if (f[i + 1] - f[i] <= 0.0) return probes[i + 1];
  const double s = p0 + (0.0 - f[i]) * (p1 - p0) / (f[i + 1] - f[i]);
  return static_cast<std::size_t>(std::llround(s));
}

const std::vector<comm::TopologySpec>& oracle_topologies() {
  static const std::vector<comm::TopologySpec> topos = {
      {comm::TopologyKind::KAry, 2},     {comm::TopologyKind::KAry, 4},
      {comm::TopologyKind::KAry, 8},     {comm::TopologyKind::KAry, 32},
      {comm::TopologyKind::Binomial, 0}, {comm::TopologyKind::Flat, 0}};
  return topos;
}

constexpr int kOracleSizes[] = {2, 3, 7, 16, 33, 64, 100, 128, 255, 512};

TEST(GatherReplayOracle, LatencyBitIdenticalToSortedReplay) {
  const cluster::CostModel costs;
  const PerfModel model(costs,
                        static_cast<std::uint32_t>(costs.rm_launch_fanout));
  const std::size_t payloads[] = {0,         1,         1000,    64 << 10,
                                  (64 << 10) + 1, 200000, 1 << 20, 4 << 20};
  for (const auto& spec : oracle_topologies()) {
    for (int n : kOracleSizes) {
      for (std::size_t s : payloads) {
        for (auto proto :
             {CollectiveProtocol::Eager, CollectiveProtocol::Rendezvous}) {
          const double want = ref_collective_gather(costs, proto, spec, n, s);
          const double got = model.collective_gather(proto, spec, n, s);
          // Bitwise: EXPECT_EQ on doubles is exact equality.
          EXPECT_EQ(got, want) << spec.to_string() << " n=" << n
                               << " payload=" << s << " "
                               << to_string(proto);
        }
      }
    }
  }
}

TEST(GatherReplayOracle, EqualReadyTimesOrderedLikeStableSort) {
  // Calibrated costs almost never make a relay's own chunk and a child's
  // chunk ready in the same nanosecond. Tiny integral costs (1 ns/byte,
  // few-byte chunks, handles of a few ns) make such ties common, and a full
  // and a tail chunk tied at a cursor only replay alike if the merge keeps
  // the stable-sort order.
  std::size_t cases = 0;
  for (sim::Time latency : {1, 2, 5}) {
    for (sim::Time handle : {1, 2, 3}) {
      for (sim::Time chunk_handle : {1, 2, 4}) {
        cluster::CostModel costs;
        costs.net_latency = latency;
        costs.iccl_msg_handle = handle;
        costs.iccl_chunk_handle = chunk_handle;
        costs.bandwidth_bytes_per_sec = 1e9;
        costs.iccl_rndv_chunk_bytes = 4;
        const PerfModel model(costs, 2);
        for (const auto& spec : oracle_topologies()) {
          for (int n : {3, 7, 16, 33}) {
            for (std::size_t s : {5, 6, 9, 13, 30}) {
              EXPECT_EQ(model.collective_gather(CollectiveProtocol::Rendezvous,
                                                spec, n, s),
                        ref_collective_gather(
                            costs, CollectiveProtocol::Rendezvous, spec, n, s))
                  << spec.to_string() << " n=" << n << " payload=" << s
                  << " L=" << latency << " h=" << handle
                  << " c_h=" << chunk_handle;
              cases += 1;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 27u * 6u * 4u * 5u);
}

TEST(GatherReplayOracle, CrossoverIdenticalToSortedReplay) {
  const cluster::CostModel costs;
  const PerfModel model(costs,
                        static_cast<std::uint32_t>(costs.rm_launch_fanout));
  // auto_tune's probe cap: 64 chunk segments at the default chunk size.
  constexpr std::size_t kMax = 4u << 20;
  for (const auto& spec : oracle_topologies()) {
    for (int n : kOracleSizes) {
      EXPECT_EQ(model.collective_gather_crossover(spec, n, kMax),
                ref_gather_crossover(costs, spec, n, kMax))
          << spec.to_string() << " n=" << n;
    }
  }
}

/// Every builtin platform profile plus the default costs, tuned at the
/// scales the benches launch at. The hex strings were recorded from the
/// sorted-replay model; any drift in the tuner's inputs or solvers shows
/// here byte for byte.
TEST(GatherReplayOracle, TunedConfigBytesUnchanged) {
  struct Pin {
    const char* profile;
    int n;
    const char* hex;
  };
  const Pin pins[] = {
      {"default", 16,
       "000004000000205b01000101019431ba93ba2ad23f205b0100e63c03000700000064656661756c7400"},
      {"default", 128,
       "000008000000758e0000010101ed8ba7c5b048e23f758e000060b600000700000064656661756c7400"},
      {"default", 256,
       "0000080000001f7c00000101018dce5b3ba331ee3f1f7c0000dab500000700000064656661756c7400"},
      {"default", 512,
       "00000800000065660000010101400c17336ed4fd3f65660000dab500000700000064656661756c7400"},
      {"atlas", 16,
       "000004000000205b01000101019431ba93ba2ad23f205b0100e63c03000500000061746c617300"},
      {"atlas", 128,
       "000008000000758e0000010101ed8ba7c5b048e23f758e000060b600000500000061746c617300"},
      {"atlas", 256,
       "0000080000001f7c00000101018dce5b3ba331ee3f1f7c0000dab500000500000061746c617300"},
      {"atlas", 512,
       "00000800000065660000010101400c17336ed4fd3f65660000dab500000500000061746c617300"},
      {"bluegene", 16,
       "000004000000205b0100010101b7d2a2758bf7eb3f205b0100e63c030008000000626c756567656e6500"},
      {"bluegene", 128,
       "000008000000758e000001010129bcddf716c5fe3f758e000060b6000008000000626c756567656e6500"},
      {"bluegene", 256,
       "0000080000001f7c000001010101b44df4705309401f7c0000dab5000008000000626c756567656e6500"},
      {"bluegene", 512,
       "0000080000006566000001010184e8727a484f174065660000dab5000008000000626c756567656e6500"},
      {"thunder", 16,
       "000004000000ad0d0100010101cdc3e9ba3cd8d33fad0d0100d87a0200070000007468756e64657200"},
      {"thunder", 128,
       "00000800000014710000010101d61e41650502e63f147100009a8a0000070000007468756e64657200"},
      {"thunder", 256,
       "0000080000005c620000010101505bc8543499f23f5c620000018a0000070000007468756e64657200"},
      {"thunder", 512,
       "000008000000335100000101014b701e8a5751024033510000018a0000070000007468756e64657200"},
      {"zeus", 16,
       "0000040000006c0c0100010101bb6524ceccc4d13f6c0c01006b4e0200040000007a65757300"},
      {"zeus", 128,
       "000008000000b17600000101017efd405442a9e03fb176000022800000040000007a65757300"},
      {"zeus", 256,
       "00000800000020660000010101e5155e37deefea3f206600009c7f0000040000007a65757300"},
      {"zeus", 512,
       "000008000000af5400000101014355515e5991fa3faf5400009c7f0000040000007a65757300"},
  };
  std::vector<std::string> profiles{"default"};
  for (const auto& name : cluster::CostModelRegistry::builtin().names()) {
    profiles.push_back(name);
  }
  std::size_t checked = 0;
  for (const auto& profile : profiles) {
    const cluster::CostModel costs =
        profile == "default"
            ? cluster::CostModel{}
            : *cluster::CostModelRegistry::builtin().find(profile);
    for (int n : {16, 128, 256, 512}) {
      AutoTuneRequest req;
      req.n_nodes = n;
      req.tasks_per_node = 8;
      req.platform = profile;
      const std::string got = to_hex(auto_tune(costs, req).encode());
      const Pin* pin = nullptr;
      for (const auto& p : pins) {
        if (p.profile == profile && p.n == n) pin = &p;
      }
      ASSERT_NE(pin, nullptr) << "no pin for " << profile << " n=" << n;
      EXPECT_EQ(got, pin->hex) << profile << " n=" << n;
      checked += 1;
    }
  }
  EXPECT_EQ(checked, std::size(pins));
}

TEST(GatherReplayOracle, DefaultCostsAt512TuneAsRecorded) {
  AutoTuneRequest req;
  req.n_nodes = 512;
  req.tasks_per_node = 8;
  const TunedConfig cfg = auto_tune(cluster::CostModel{}, req);
  EXPECT_EQ(cfg.strategy, comm::LaunchStrategyKind::RmBulk);
  EXPECT_EQ(cfg.topology, (comm::TopologySpec{comm::TopologyKind::KAry, 8}));
  EXPECT_EQ(cfg.rndv_threshold, 26213u);
  EXPECT_EQ(cfg.gather_crossover, 46554u);
}

}  // namespace
}  // namespace lmon::core
