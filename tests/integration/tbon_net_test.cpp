// Integration tests for the TBON overlay itself: deep topologies, filters,
// multiple streams, round synchronization, via the ad hoc startup path.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "common/argparse.hpp"
#include "tbon/comm_node.hpp"
#include "tbon/endpoint.hpp"
#include "tbon/startup.hpp"
#include "obs/metrics.hpp"
#include "tests/test_util.hpp"

namespace lmon::tbon {
namespace {

using lmon::testing::TestCluster;

/// Leaf daemon: on Down(tag), replies with its be_rank as a u64 payload.
class LeafDaemon : public cluster::Program {
 public:
  [[nodiscard]] std::string_view name() const override { return "leaf_be"; }
  void on_start(cluster::Process& self) override {
    auto topo_hex = arg_value(self.args(), "--tbon-topology=");
    auto index = arg_int(self.args(), "--tbon-index=");
    ASSERT_TRUE(topo_hex && index);
    auto topo = Topology::unpack(*from_hex(*topo_hex));
    ASSERT_TRUE(topo.has_value());
    const int my_index = static_cast<int>(*index);
    const std::int32_t rank =
        topo->nodes()[static_cast<std::size_t>(my_index)].be_rank;
    TbonEndpoint::Callbacks cbs;
    cbs.on_down = [this, rank](std::uint32_t stream, std::uint32_t tag,
                               const Bytes&) {
      ByteWriter w;
      w.u64(static_cast<std::uint64_t>(rank));
      endpoint_->send_up(stream, tag, std::move(w).take());
    };
    endpoint_ = std::make_unique<TbonEndpoint>(self, std::move(*topo),
                                               my_index, std::move(cbs));
    endpoint_->start();
  }
  static void install(cluster::Machine& machine) {
    cluster::ProgramImage image;
    image.image_mb = 2.0;
    image.factory = [](const std::vector<std::string>&) {
      return std::make_unique<LeafDaemon>();
    };
    machine.install_program("leaf_be", std::move(image));
  }

 private:
  std::unique_ptr<TbonEndpoint> endpoint_;
};

/// Root-side driver program with a scripted body.
class RootFe : public cluster::Program {
 public:
  using Go = std::function<void(cluster::Process&, RootFe&)>;
  explicit RootFe(Go go) : go_(std::move(go)) {}
  [[nodiscard]] std::string_view name() const override { return "root_fe"; }
  void on_start(cluster::Process& self) override { go_(self, *this); }

  std::unique_ptr<TbonEndpoint> endpoint;

 private:
  Go go_;
};

struct NetParam {
  int backends;
  int comm_nodes;
  int fanout;
};

class TbonNetTest : public ::testing::TestWithParam<NetParam> {};

TEST_P(TbonNetTest, SumFilterReducesAcrossTopologies) {
  const auto [nbe, ncomm, fanout] = GetParam();
  TestCluster tc(nbe + ncomm);
  LeafDaemon::install(tc.machine);
  AdHocCommNode::install(tc.machine);

  std::vector<std::string> be_hosts;
  std::vector<std::string> comm_hosts;
  for (int i = 0; i < nbe; ++i) {
    be_hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  for (int i = 0; i < ncomm; ++i) {
    comm_hosts.push_back(tc.machine.compute_node(nbe + i).hostname());
  }

  bool tree_ready = false;
  bool got_sum = false;
  std::uint64_t sum = 0;
  std::vector<std::uint32_t> contributing_ranks;

  cluster::SpawnOptions opts;
  opts.executable = "root_fe";
  auto res = tc.machine.front_end().spawn(
      std::make_unique<RootFe>([&](cluster::Process& self, RootFe& prog) {
        Topology topo =
            comm_hosts.empty()
                ? Topology::one_deep(self.node().hostname(),
                                     cluster::kTbonBasePort, be_hosts)
                : Topology::balanced(self.node().hostname(),
                                     cluster::kTbonBasePort, comm_hosts,
                                     be_hosts, fanout,
                                     cluster::kTbonBasePort + 1);
        ASSERT_TRUE(topo.valid());
        TbonEndpoint::Callbacks cbs;
        cbs.on_tree_ready = [&, topo](Status st) {
          ASSERT_TRUE(st.is_ok()) << st.to_string();
          tree_ready = true;
          const std::uint32_t stream =
              prog.endpoint->new_stream(kFilterSumU64);
          prog.endpoint->send_down(stream, /*tag=*/7, {});
        };
        cbs.on_up = [&](std::uint32_t, std::uint32_t tag, const Bytes& data,
                        const std::vector<std::uint32_t>& ranks) {
          EXPECT_EQ(tag, 7u);
          ByteReader r(data);
          sum = r.u64().value_or(0);
          contributing_ranks = ranks;
          got_sum = true;
        };
        prog.endpoint = std::make_unique<TbonEndpoint>(self, topo, 0,
                                                       std::move(cbs));
        prog.endpoint->start();
        adhoc_launch(self, topo, "tbon_commd", "leaf_be", {},
                     [](rsh::LaunchOutcome out) {
                       ASSERT_TRUE(out.status.is_ok())
                           << out.status.to_string();
                     });
      }),
      std::move(opts));
  ASSERT_TRUE(res.is_ok());
  ASSERT_TRUE(tc.run_until([&] { return got_sum; }, sim::seconds(1800)));

  // Sum of be ranks 0..n-1 and full rank coverage.
  EXPECT_EQ(sum, static_cast<std::uint64_t>(nbe) * (nbe - 1) / 2);
  ASSERT_EQ(contributing_ranks.size(), static_cast<std::size_t>(nbe));
  for (int i = 0; i < nbe; ++i) {
    EXPECT_EQ(contributing_ranks[static_cast<std::size_t>(i)],
              static_cast<std::uint32_t>(i));
  }
  EXPECT_TRUE(tree_ready);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TbonNetTest,
    ::testing::Values(NetParam{4, 0, 0},    // 1-deep
                      NetParam{8, 2, 2},    // one comm layer
                      NetParam{16, 6, 2},   // two comm layers
                      NetParam{12, 3, 3}),
    [](const ::testing::TestParamInfo<NetParam>& pinfo) {
      return "be" + std::to_string(pinfo.param.backends) + "_c" +
             std::to_string(pinfo.param.comm_nodes) + "_k" +
             std::to_string(std::max(pinfo.param.fanout, 1));
    });

/// Packs a topology with the *old* round-robin BE attachment: 2 leaf comm
/// daemons, consecutive BE ranks striding across them. Regression for the
/// contiguous-block placement change - overlay delivery and up-gather must
/// never assume a leaf daemon owns a contiguous rank range.
Topology round_robin_topology(const std::string& fe_host,
                              const std::vector<std::string>& comm_hosts,
                              const std::vector<std::string>& be_hosts) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(1 + comm_hosts.size() + be_hosts.size()));
  w.str(fe_host);
  w.u16(cluster::kTbonBasePort);
  w.i32(-1);
  w.boolean(false);
  w.i32(-1);
  for (const auto& host : comm_hosts) {
    w.str(host);
    w.u16(cluster::kTbonBasePort + 1);
    w.i32(0);
    w.boolean(false);
    w.i32(-1);
  }
  for (std::size_t b = 0; b < be_hosts.size(); ++b) {
    w.str(be_hosts[b]);
    w.u16(0);
    w.i32(1 + static_cast<std::int32_t>(b % comm_hosts.size()));
    w.boolean(true);
    w.i32(static_cast<std::int32_t>(b));
  }
  auto t = Topology::unpack(std::move(w).take());
  EXPECT_TRUE(t.has_value());
  return *t;
}

TEST(TbonNet, NonContiguousBePlacementStillDeliversAndGathers) {
  const int nbe = 8;
  const int ncomm = 2;
  TestCluster tc(nbe + ncomm);
  LeafDaemon::install(tc.machine);
  AdHocCommNode::install(tc.machine);

  std::vector<std::string> be_hosts;
  std::vector<std::string> comm_hosts;
  for (int i = 0; i < nbe; ++i) {
    be_hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  for (int i = 0; i < ncomm; ++i) {
    comm_hosts.push_back(tc.machine.compute_node(nbe + i).hostname());
  }

  bool got_sum = false;
  std::uint64_t sum = 0;
  std::vector<std::uint32_t> contributing_ranks;
  cluster::SpawnOptions opts;
  opts.executable = "root_fe";
  auto res = tc.machine.front_end().spawn(
      std::make_unique<RootFe>([&](cluster::Process& self, RootFe& prog) {
        Topology topo = round_robin_topology(self.node().hostname(),
                                             comm_hosts, be_hosts);
        ASSERT_TRUE(topo.valid());
        TbonEndpoint::Callbacks cbs;
        cbs.on_tree_ready = [&](Status st) {
          ASSERT_TRUE(st.is_ok()) << st.to_string();
          const std::uint32_t stream =
              prog.endpoint->new_stream(kFilterSumU64);
          prog.endpoint->send_down(stream, /*tag=*/5, {});
        };
        cbs.on_up = [&](std::uint32_t, std::uint32_t, const Bytes& data,
                        const std::vector<std::uint32_t>& ranks) {
          ByteReader r(data);
          sum = r.u64().value_or(0);
          contributing_ranks = ranks;
          got_sum = true;
        };
        prog.endpoint = std::make_unique<TbonEndpoint>(self, topo, 0,
                                                       std::move(cbs));
        prog.endpoint->start();
        adhoc_launch(self, topo, "tbon_commd", "leaf_be", {},
                     [](rsh::LaunchOutcome out) {
                       ASSERT_TRUE(out.status.is_ok())
                           << out.status.to_string();
                     });
      }),
      std::move(opts));
  ASSERT_TRUE(res.is_ok());
  ASSERT_TRUE(tc.run_until([&] { return got_sum; }, sim::seconds(1800)));

  EXPECT_EQ(sum, static_cast<std::uint64_t>(nbe) * (nbe - 1) / 2);
  ASSERT_EQ(contributing_ranks.size(), static_cast<std::size_t>(nbe));
  for (int i = 0; i < nbe; ++i) {
    EXPECT_EQ(contributing_ranks[static_cast<std::size_t>(i)],
              static_cast<std::uint32_t>(i));
  }
}

TEST(TbonNet, MultipleStreamsKeepRoundsSeparate) {
  TestCluster tc(4);
  LeafDaemon::install(tc.machine);

  std::map<std::uint32_t, std::uint64_t> sums;  // stream -> result
  cluster::SpawnOptions opts;
  opts.executable = "root_fe";
  std::vector<std::string> be_hosts;
  for (int i = 0; i < 4; ++i) {
    be_hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  auto res = tc.machine.front_end().spawn(
      std::make_unique<RootFe>([&](cluster::Process& self, RootFe& prog) {
        Topology topo = Topology::one_deep(self.node().hostname(),
                                           cluster::kTbonBasePort, be_hosts);
        TbonEndpoint::Callbacks cbs;
        cbs.on_tree_ready = [&](Status st) {
          ASSERT_TRUE(st.is_ok());
          const auto s1 = prog.endpoint->new_stream(kFilterSumU64);
          const auto s2 = prog.endpoint->new_stream(kFilterMaxU64);
          prog.endpoint->send_down(s1, 1, {});
          prog.endpoint->send_down(s2, 1, {});
          prog.endpoint->send_down(s1, 2, {});
        };
        cbs.on_up = [&](std::uint32_t stream, std::uint32_t tag,
                        const Bytes& data, const auto&) {
          ByteReader r(data);
          sums[stream * 100 + tag] = r.u64().value_or(9999);
        };
        prog.endpoint = std::make_unique<TbonEndpoint>(self, topo, 0,
                                                       std::move(cbs));
        prog.endpoint->start();
        adhoc_launch(self, topo, "tbon_commd", "leaf_be", {},
                     [](rsh::LaunchOutcome) {});
      }),
      std::move(opts));
  ASSERT_TRUE(res.is_ok());
  ASSERT_TRUE(tc.run_until([&] { return sums.size() == 3; },
                           sim::seconds(600)));
  EXPECT_EQ(sums[101], 6u);   // stream 1 (sum), tag 1: 0+1+2+3
  EXPECT_EQ(sums[201], 3u);   // stream 2 (max), tag 1
  EXPECT_EQ(sums[102], 6u);   // stream 1, tag 2 (separate round)
}


// --- self-healing overlay (TbonEndpoint::set_heal) ---------------------------

struct HealShared {
  std::map<int, cluster::Pid> pids;           ///< topo index -> pid
  std::map<int, TbonEndpoint*> endpoints;     ///< live endpoints by index
  std::map<std::uint32_t, int> up_count;      ///< tag -> root on_up firings
  std::map<std::uint32_t, std::uint64_t> sums;
  std::map<std::uint32_t, std::vector<std::uint32_t>> up_ranks;
  /// be_rank -> tag -> deliveries (duplicates are a heal bug).
  std::map<int, std::map<std::uint32_t, int>> down_count;
};

/// Every surviving non-root endpoint is linked to its nearest live ancestor
/// along the topology's parent chain: the answer comm::nearest_live_ancestor
/// gives for the fabric.
void expect_parents_are_nearest_live(const HealShared& hs,
                                     const std::set<int>& dead) {
  const Topology& topo = hs.endpoints.at(0)->topology();
  const auto parent_of = [&](int index) {
    return topo.nodes()[static_cast<std::size_t>(index)].parent;
  };
  for (const auto& [index, ep] : hs.endpoints) {
    if (index == 0 || dead.count(index) != 0) continue;
    int want = parent_of(index);
    while (dead.count(want) != 0) want = parent_of(want);
    EXPECT_EQ(ep->parent_index(), want) << "node " << index;
  }
}

/// Leaf with heal enabled: echoes its be_rank per Down, counts deliveries.
class HealLeaf : public cluster::Program {
 public:
  explicit HealLeaf(HealShared* sh) : sh_(sh) {}
  [[nodiscard]] std::string_view name() const override {
    return "leaf_be_heal";
  }
  void on_start(cluster::Process& self) override {
    auto topo_hex = arg_value(self.args(), "--tbon-topology=");
    auto index = arg_int(self.args(), "--tbon-index=");
    ASSERT_TRUE(topo_hex && index);
    auto topo = Topology::unpack(*from_hex(*topo_hex));
    ASSERT_TRUE(topo.has_value());
    const int my_index = static_cast<int>(*index);
    const std::int32_t rank =
        topo->nodes()[static_cast<std::size_t>(my_index)].be_rank;
    TbonEndpoint::Callbacks cbs;
    cbs.on_down = [this, rank](std::uint32_t stream, std::uint32_t tag,
                               const Bytes&) {
      sh_->down_count[rank][tag] += 1;
      ByteWriter w;
      w.u64(static_cast<std::uint64_t>(rank));
      endpoint_->send_up(stream, tag, std::move(w).take());
    };
    endpoint_ = std::make_unique<TbonEndpoint>(self, std::move(*topo),
                                               my_index, std::move(cbs));
    endpoint_->set_heal(true);
    sh_->pids[my_index] = self.pid();
    sh_->endpoints[my_index] = endpoint_.get();
    endpoint_->start();
  }
  static void install(cluster::Machine& machine, HealShared* sh) {
    cluster::ProgramImage image;
    image.image_mb = 2.0;
    image.factory = [sh](const std::vector<std::string>&) {
      return std::make_unique<HealLeaf>(sh);
    };
    machine.install_program("leaf_be_heal", std::move(image));
  }

 private:
  HealShared* sh_;
  std::unique_ptr<TbonEndpoint> endpoint_;
};

/// Pure forwarding comm node with heal enabled.
class HealComm : public cluster::Program {
 public:
  explicit HealComm(HealShared* sh) : sh_(sh) {}
  [[nodiscard]] std::string_view name() const override {
    return "tbon_commd_heal";
  }
  void on_start(cluster::Process& self) override {
    auto topo_hex = arg_value(self.args(), "--tbon-topology=");
    auto index = arg_int(self.args(), "--tbon-index=");
    ASSERT_TRUE(topo_hex && index);
    auto topo = Topology::unpack(*from_hex(*topo_hex));
    ASSERT_TRUE(topo.has_value());
    const int my_index = static_cast<int>(*index);
    endpoint_ = std::make_unique<TbonEndpoint>(
        self, std::move(*topo), my_index, TbonEndpoint::Callbacks{});
    endpoint_->set_heal(true);
    sh_->pids[my_index] = self.pid();
    sh_->endpoints[my_index] = endpoint_.get();
    endpoint_->start();
  }
  static void install(cluster::Machine& machine, HealShared* sh) {
    cluster::ProgramImage image;
    image.image_mb = 6.0;
    image.factory = [sh](const std::vector<std::string>&) {
      return std::make_unique<HealComm>(sh);
    };
    machine.install_program("tbon_commd_heal", std::move(image));
  }

 private:
  HealShared* sh_;
  std::unique_ptr<TbonEndpoint> endpoint_;
};

TEST(TbonNet, HealedOverlaySurvivesCommDeathsWithoutDuplicates) {
  const int nbe = 4;
  const int ncomm = 3;
  HealShared hs;
  TestCluster tc(nbe + ncomm);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  HealLeaf::install(tc.machine, &hs);
  HealComm::install(tc.machine, &hs);

  std::vector<std::string> be_hosts;
  std::vector<std::string> comm_hosts;
  for (int i = 0; i < nbe; ++i) {
    be_hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  for (int i = 0; i < ncomm; ++i) {
    comm_hosts.push_back(tc.machine.compute_node(nbe + i).hostname());
  }

  // fanout 2, 3 comm nodes: index 1 under the root, 2 and 3 under 1, two
  // leaves under each of 2/3 (indices 4..7).
  bool tree_ready = false;
  std::uint32_t stream = 0;
  cluster::SpawnOptions opts;
  opts.executable = "root_fe";
  auto res = tc.machine.front_end().spawn(
      std::make_unique<RootFe>([&](cluster::Process& self, RootFe& prog) {
        Topology topo = Topology::balanced(
            self.node().hostname(), cluster::kTbonBasePort, comm_hosts,
            be_hosts, /*fanout=*/2, cluster::kTbonBasePort + 1);
        ASSERT_TRUE(topo.valid());
        TbonEndpoint::Callbacks cbs;
        cbs.on_tree_ready = [&](Status st) {
          ASSERT_TRUE(st.is_ok()) << st.to_string();
          tree_ready = true;
          stream = prog.endpoint->new_stream(kFilterSumU64);
        };
        cbs.on_up = [&](std::uint32_t, std::uint32_t tag, const Bytes& data,
                        const std::vector<std::uint32_t>& ranks) {
          ByteReader r(data);
          hs.up_count[tag] += 1;
          hs.sums[tag] = r.u64().value_or(0);
          hs.up_ranks[tag] = ranks;
        };
        prog.endpoint = std::make_unique<TbonEndpoint>(self, topo, 0,
                                                       std::move(cbs));
        prog.endpoint->set_heal(true);
        hs.endpoints[0] = prog.endpoint.get();
        prog.endpoint->start();
        adhoc_launch(self, topo, "tbon_commd_heal", "leaf_be_heal", {},
                     [](rsh::LaunchOutcome out) {
                       ASSERT_TRUE(out.status.is_ok())
                           << out.status.to_string();
                     });
      }),
      std::move(opts));
  ASSERT_TRUE(res.is_ok());
  ASSERT_TRUE(tc.run_until([&] { return tree_ready && stream != 0; },
                           sim::seconds(1800)));

  // Pre-failure baseline round.
  hs.endpoints[0]->send_down(stream, 7, {});
  ASSERT_TRUE(tc.run_until([&] { return hs.up_count[7] != 0; }));
  EXPECT_EQ(hs.sums[7], 6u);  // 0+1+2+3
  EXPECT_EQ(hs.up_count[7], 1);

  // Kill comm index 3: its two leaves re-Hello comm 1.
  tc.machine.find_process(hs.pids[3])->exit(9);
  ASSERT_TRUE(tc.run_until(
      [&] { return metrics.counter("tbon.heal.adoptions") >= 2.0; }))
      << "orphaned leaves were never adopted";
  EXPECT_EQ(hs.endpoints[0]->live_children(), std::set<int>{1});
  expect_parents_are_nearest_live(hs, {3});

  hs.endpoints[0]->send_down(stream, 8, {});
  ASSERT_TRUE(tc.run_until([&] { return hs.up_count[8] != 0; }))
      << "post-heal round never reduced";
  EXPECT_EQ(hs.sums[8], 6u) << "lost a leaf contribution after heal";
  ASSERT_EQ(hs.up_ranks[8].size(), 4u);
  EXPECT_EQ(hs.up_count[8], 1);

  // Cascade: kill comm 1 (the root's only child). Its children - comm 2
  // plus the two adopted leaves - climb to the root itself.
  tc.machine.find_process(hs.pids[1])->exit(9);
  ASSERT_TRUE(tc.run_until(
      [&] { return metrics.counter("tbon.heal.adoptions") >= 5.0; }))
      << "second-wave orphans were never adopted";
  EXPECT_EQ(hs.endpoints[0]->live_children(), (std::set<int>{2, 6, 7}));
  EXPECT_EQ(hs.endpoints[6]->parent_index(), 0);
  EXPECT_EQ(hs.endpoints[7]->parent_index(), 0);
  expect_parents_are_nearest_live(hs, {3, 1});

  hs.endpoints[0]->send_down(stream, 9, {});
  ASSERT_TRUE(tc.run_until([&] { return hs.up_count[9] != 0; }))
      << "post-cascade round never reduced";
  EXPECT_EQ(hs.sums[9], 6u);
  ASSERT_EQ(hs.up_ranks[9].size(), 4u);
  EXPECT_EQ(hs.up_count[9], 1);

  // Exactly-once at every surviving endpoint for every round that ran
  // while that leaf was attached: no duplicate TBON packets delivered.
  for (int rank = 0; rank < nbe; ++rank) {
    for (const std::uint32_t tag : {7u, 8u, 9u}) {
      EXPECT_LE(hs.down_count[rank][tag], 1)
          << "duplicate Down at be " << rank << " tag " << tag;
    }
    EXPECT_EQ(hs.down_count[rank][9], 1) << "be " << rank;
  }
}

}  // namespace
}  // namespace lmon::tbon
