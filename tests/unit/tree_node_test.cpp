// Unit tests for comm::TreeNode, the tree-link core under the ICCL and the
// TBON: parent dial with retry under both layers' dial policies, the ready
// latch, lost children, and the heal climb. Each test wires a few probe
// processes whose "layer" is two one-frame messages (Register, Report) over
// a comm::Topology, on a jitter-free cluster so dial times are exact.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "comm/heal.hpp"
#include "comm/topology.hpp"
#include "comm/tree_node.hpp"
#include "core/iccl.hpp"
#include "obs/metrics.hpp"
#include "tbon/endpoint.hpp"
#include "tests/test_util.hpp"

namespace lmon::comm {
namespace {

using testing::TestCluster;

constexpr cluster::Port kPort = cluster::kToolFabricBasePort + 77;
constexpr std::uint8_t kRegister = 1;
constexpr std::uint8_t kReport = 2;

class Probe;

/// What every probe in one test shares: the tree, its policy and switches.
struct Net {
  explicit Net(Topology t, DialPolicy d = core::Iccl::kDial)
      : topo(t), dial(d) {}
  Topology topo;
  DialPolicy dial;
  bool heal = false;
  /// Children that never report up (like TBON back ends): their parent
  /// does not wait for a report from them.
  std::set<std::uint32_t> silent;
  std::map<std::uint32_t, Probe*> probes;
};

struct Record {
  std::vector<sim::Time> dials;  ///< simulated time of each dial attempt
  int ready_calls = 0;
  Status ready_status;
  sim::Time ready_at = -1;
  std::vector<std::pair<std::uint32_t, bool>> lost;  ///< (child, was_ready)
  int adoptions = 0;
};

class Probe : public cluster::Program, private TreeNode::Hooks {
 public:
  Probe(Net& net, Record& rec, std::uint32_t index)
      : net_(net), rec_(rec), index_(index) {}

  [[nodiscard]] std::string_view name() const override { return "probe"; }

  void on_start(cluster::Process& self) override {
    self_ = &self;
    net_.probes[index_] = this;
    TreeNode::Hooks& hooks = *this;
    node_ = std::make_unique<TreeNode>(self, hooks, "probe", "probe tree",
                                       net_.dial, index_,
                                       net_.topo.parent_of(index_));
    for (const std::uint32_t c : net_.topo.children_of(index_)) {
      node_->expect_child(c, net_.silent.count(c) == 0);
    }
    node_->set_heal(net_.heal);
    node_->start(kPort);
  }

  [[nodiscard]] const TreeNode& node() const { return *node_; }

 private:
  [[nodiscard]] TreeNode::Address address_of(
      std::uint32_t index) const override {
    rec_.dials.push_back(self_->sim().now());
    return {self_->machine().compute_node(static_cast<int>(index)).hostname(),
            kPort};
  }
  [[nodiscard]] std::vector<std::uint32_t> ancestors_of(
      std::uint32_t index) const override {
    return ancestor_chain(net_.topo, index);
  }
  void on_link_message(const cluster::ChannelPtr& ch,
                       cluster::Message m) override {
    ByteReader r(m.bytes);
    const auto kind = r.u8();
    const auto from = r.u32();
    if (!kind || !from) return;
    if (*kind == kRegister) node_->add_child(*from, ch);
    if (*kind == kReport) node_->report_up(*from);
  }
  void on_linked(const cluster::ChannelPtr& parent, bool adopted) override {
    if (adopted) rec_.adoptions += 1;
    send(parent, kRegister);
  }
  void on_ready(Status st) override {
    rec_.ready_calls += 1;
    rec_.ready_status = st;
    rec_.ready_at = self_->sim().now();
    if (st.is_ok() && node_->parent() != nullptr &&
        net_.silent.count(index_) == 0) {
      send(node_->parent(), kReport);
    }
  }
  void on_child_lost(std::uint32_t child, bool was_ready) override {
    rec_.lost.emplace_back(child, was_ready);
  }
  [[nodiscard]] obs::SpanId trace_parent(obs::Tracer&) const override {
    return obs::kNoSpan;
  }

  void send(const cluster::ChannelPtr& ch, std::uint8_t kind) {
    ByteWriter w;
    w.u8(kind);
    w.u32(index_);
    self_->send(ch, cluster::Message(std::move(w).take()));
  }

  Net& net_;
  Record& rec_;
  std::uint32_t index_;
  cluster::Process* self_ = nullptr;
  std::unique_ptr<TreeNode> node_;
};

/// A jitter-free cluster with metrics attached. Declare the Net first: the
/// probes refer to it until the cluster is gone.
struct Fixture {
  explicit Fixture(int nodes)
      : tc(nodes, 0, cluster::CostModel{}.deterministic()) {
    tc.machine.set_metrics(&metrics);
  }
  ~Fixture() { tc.machine.set_metrics(nullptr); }

  cluster::Pid spawn(Net& net, std::uint32_t index) {
    cluster::SpawnOptions opts;
    opts.executable = "probe";
    auto res = tc.machine.compute_node(static_cast<int>(index))
                   .spawn(std::make_unique<Probe>(net, recs[index], index),
                          std::move(opts));
    EXPECT_TRUE(res.is_ok());
    pids[index] = res.value;
    return res.value;
  }
  void kill(std::uint32_t index) {
    tc.machine.find_process(pids.at(index))->exit(9);
  }

  TestCluster tc;
  obs::Metrics metrics;
  std::map<std::uint32_t, Record> recs;
  std::map<std::uint32_t, cluster::Pid> pids;
};

/// A path 0 <- 1 <- ... <- n-1.
Topology line(std::uint32_t n) { return Topology({TopologyKind::KAry, 1}, n); }

/// Rank 1 dials its parent, which never listens, until the budget runs
/// out; returns the dial times.
std::vector<sim::Time> dial_dead_parent(Net& net, Fixture& f) {
  f.spawn(net, 1);
  EXPECT_TRUE(f.tc.run_until([&] { return f.recs[1].ready_calls != 0; },
                             sim::seconds(60)));
  return f.recs[1].dials;
}

/// Every gap between dials is the refusal round trip plus the policy's
/// delay for that retry.
void expect_dial_schedule(const DialPolicy& policy,
                          const std::vector<sim::Time>& dials) {
  ASSERT_EQ(dials.size(), static_cast<std::size_t>(policy.retries) + 1);
  const sim::Time refusal = dials[1] - dials[0] - policy.retry_delay(0);
  ASSERT_GT(refusal, 0);
  for (std::size_t k = 0; k + 1 < dials.size(); ++k) {
    EXPECT_EQ(dials[k + 1] - dials[k],
              refusal + policy.retry_delay(static_cast<int>(k)))
        << "retry " << k;
  }
}

TEST(TreeNode, FabricDialBacksOffExponentiallyToTheCap) {
  constexpr DialPolicy p = core::Iccl::kDial;
  EXPECT_EQ(p.retry_delay(0), sim::ms(3));
  EXPECT_EQ(p.retry_delay(1), sim::ms(6));
  EXPECT_EQ(p.retry_delay(6), sim::ms(192));
  EXPECT_EQ(p.retry_delay(7), sim::ms(200));
  EXPECT_EQ(p.retry_delay(79), sim::ms(200));

  Net net(line(2), p);
  Fixture f(2);
  expect_dial_schedule(p, dial_dead_parent(net, f));
  EXPECT_EQ(f.metrics.counter("probe.connect_retries"), p.retries);
}

TEST(TreeNode, OverlayDialRetriesAtAFixedDelay) {
  constexpr DialPolicy p = tbon::TbonEndpoint::kDial;
  for (int k = 0; k < p.retries; ++k) {
    EXPECT_EQ(p.retry_delay(k), sim::ms(4)) << k;
  }
  Net net(line(2), p);
  Fixture f(2);
  expect_dial_schedule(p, dial_dead_parent(net, f));
  EXPECT_EQ(f.metrics.counter("probe.connect_retries"), p.retries);
}

TEST(TreeNode, SpentDialBudgetFailsReadyOnce) {
  Net net(line(2), DialPolicy{2, sim::ms(1), sim::ms(1)});
  Fixture f(2);
  dial_dead_parent(net, f);
  f.tc.run_until([] { return false; }, sim::seconds(5));
  const Record& rec = f.recs[1];
  EXPECT_EQ(rec.dials.size(), 3u);
  EXPECT_EQ(rec.ready_calls, 1);
  EXPECT_EQ(rec.ready_status.rc(), Rc::Esubcom);
  EXPECT_EQ(rec.ready_status.message(), "cannot reach probe tree parent");
}

TEST(TreeNode, ReadyWaitsForEveryRegistrationAndReport) {
  // 0 has children 1 and 2, 1 has children 3 and 4; 2 and 4 never report
  // (back ends), so only their registration counts. Starting the ranks in
  // three waves leaves exactly one thing missing at one node each time.
  Net net(Topology({TopologyKind::KAry, 2}, 5));
  net.silent = {2, 4};
  Fixture f(5);
  const auto settle = [&] {
    f.tc.run_until([] { return false; }, sim::seconds(1));
  };
  f.spawn(net, 0);
  f.spawn(net, 1);
  f.spawn(net, 3);
  settle();
  EXPECT_EQ(f.recs[3].ready_calls, 1);  // a leaf is ready once linked
  EXPECT_EQ(f.recs[1].ready_calls, 0);  // only 4's registration is missing

  f.spawn(net, 2);
  settle();
  ASSERT_EQ(net.probes.at(0)->node().children().size(), 2u);
  EXPECT_EQ(f.recs[0].ready_calls, 0);  // only 1's report is missing

  f.spawn(net, 4);
  ASSERT_TRUE(f.tc.run_until([&] { return f.recs[0].ready_calls != 0; }));
  settle();
  for (std::uint32_t r = 0; r < 5; ++r) {
    EXPECT_EQ(f.recs[r].ready_calls, 1) << "rank " << r;
    EXPECT_TRUE(f.recs[r].ready_status.is_ok()) << "rank " << r;
  }
  EXPECT_GT(f.recs[0].ready_at, f.recs[1].ready_at);
}

TEST(TreeNode, ChildLostBeforeReadyFailsTheLatchOnce) {
  // 0 expects 1, 2 and 3; 3 never starts, so 0 cannot be ready when 1 and
  // 2 die.
  Net net(Topology({TopologyKind::Flat, 0}, 4));
  Fixture f(4);
  f.spawn(net, 0);
  f.spawn(net, 1);
  f.spawn(net, 2);
  f.tc.run_until([] { return false; }, sim::seconds(1));
  ASSERT_EQ(net.probes.at(0)->node().children().size(), 2u);
  ASSERT_EQ(f.recs[0].ready_calls, 0);

  f.kill(1);
  f.kill(2);
  f.tc.run_until([] { return false; }, sim::seconds(1));
  const Record& root = f.recs[0];
  EXPECT_EQ(root.ready_calls, 1);
  EXPECT_EQ(root.ready_status.message(), "probe tree child lost");
  const std::vector<std::pair<std::uint32_t, bool>> lost{{1, false},
                                                         {2, true}};
  EXPECT_EQ(root.lost, lost);
  EXPECT_TRUE(net.probes.at(0)->node().children().empty());
}

TEST(TreeNode, ClimbPassesADeadAncestorToTheNextLiveOne) {
  Net net(line(4));
  net.heal = true;
  Fixture f(4);
  for (std::uint32_t r = 0; r < 4; ++r) f.spawn(net, r);
  ASSERT_TRUE(f.tc.run_until([&] { return f.recs[0].ready_calls != 0; }));

  f.kill(1);
  f.kill(2);
  const TreeNode& root = net.probes.at(0)->node();
  ASSERT_TRUE(f.tc.run_until([&] { return root.children().count(3) != 0; }));
  EXPECT_EQ(f.recs[3].adoptions, 1);
  const TreeNode& orphan = net.probes.at(3)->node();
  EXPECT_EQ(orphan.parent_index(), 0u);
  EXPECT_EQ(orphan.parent_index(),
            nearest_live_ancestor(net.topo, 3, {1, 2}).value());
  EXPECT_EQ(orphan.climb_via(), (std::vector<std::uint32_t>{2, 1}));
  EXPECT_FALSE(orphan.climbing());
  EXPECT_EQ(f.metrics.counter("probe.heal.orphaned"), 1.0);
  EXPECT_EQ(f.metrics.counter("probe.heal.reattach_retries"),
            kHealConnectRetries);
  EXPECT_EQ(f.metrics.counter("probe.heal.reattaches"), 1.0);
  EXPECT_EQ(f.metrics.counter("probe.heal.give_ups"), 0.0);
}

TEST(TreeNode, DeadRootGivesUp) {
  Net net(line(3));
  net.heal = true;
  Fixture f(3);
  for (std::uint32_t r = 0; r < 3; ++r) f.spawn(net, r);
  ASSERT_TRUE(f.tc.run_until([&] { return f.recs[0].ready_calls != 0; }));

  // 1 lost the root itself: nothing above it to dial.
  const std::size_t dials = f.recs[1].dials.size();
  f.kill(0);
  f.tc.run_until([] { return false; }, sim::seconds(1));
  EXPECT_EQ(f.recs[1].dials.size(), dials);
  EXPECT_EQ(f.metrics.counter("probe.heal.give_ups"), 1.0);
  EXPECT_FALSE(net.probes.at(1)->node().climbing());
  EXPECT_EQ(net.probes.at(1)->node().parent(), nullptr);

  // 2 climbs from 1 to the dead root, which refuses every retry.
  f.kill(1);
  f.tc.run_until([] { return false; }, sim::seconds(1));
  const TreeNode& last = net.probes.at(2)->node();
  EXPECT_EQ(f.metrics.counter("probe.heal.give_ups"), 2.0);
  EXPECT_EQ(f.metrics.counter("probe.heal.orphaned"), 2.0);
  EXPECT_EQ(f.metrics.counter("probe.heal.reattaches"), 0.0);
  EXPECT_EQ(last.climb_via(), (std::vector<std::uint32_t>{1, 0}));
  EXPECT_FALSE(last.climbing());
  EXPECT_EQ(f.recs[2].adoptions, 0);
}

}  // namespace
}  // namespace lmon::comm
