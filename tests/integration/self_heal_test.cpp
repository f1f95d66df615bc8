// Self-healing daemon tree tests: kill comm daemons under a raw ICCL
// fabric (heal enabled) and assert the tree reparents onto surviving
// ancestors, in-flight collectives recover byte-identically, and nothing
// is delivered twice. Fault timing is scripted through tests/fault_plan.hpp
// so every interleaving of death vs. in-flight traffic is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "comm/bootstrap.hpp"
#include "comm/heal.hpp"
#include "comm/topology.hpp"
#include "core/iccl.hpp"
#include "obs/metrics.hpp"
#include "tests/fault_plan.hpp"
#include "tests/flight_check.hpp"
#include "tests/test_util.hpp"

namespace lmon::core {
namespace {

using testing::FaultPlan;
using testing::TestCluster;

constexpr std::uint32_t kEagerOnly = 0xffffffffu;
constexpr std::uint32_t kRndvAlways = 1;
constexpr std::uint32_t kChunk = 64 * 1024;  // CostModel default

struct Shared {
  /// rank -> tag -> (delivery count, payload): duplicates are a bug even
  /// when the wire legitimately carries replayed frames.
  std::map<std::uint32_t, std::map<std::uint32_t, int>> bcast_count;
  std::map<std::uint32_t, std::map<std::uint32_t, Bytes>> bcast_by_tag;
  /// tag -> times the root handler fired; entries of the last firing.
  std::map<std::uint32_t, int> gather_fired;
  std::map<std::uint32_t, std::vector<std::pair<std::uint32_t, Bytes>>>
      gather_by_tag;
  std::map<std::uint32_t, Iccl*> iccls;  ///< live instances only
  int ready = 0;
};

class RawHealDaemon : public cluster::Program {
 public:
  explicit RawHealDaemon(Shared* sh) : sh_(sh) {}
  ~RawHealDaemon() override {
    if (rank_ != kNoRank) sh_->iccls.erase(rank_);
  }
  [[nodiscard]] std::string_view name() const override { return "raw_heal"; }

  void on_start(cluster::Process& self) override {
    auto params = comm::parse_bootstrap(self.args(), self.node().hostname());
    ASSERT_TRUE(params.has_value());
    iccl_ = std::make_unique<Iccl>(self, std::move(*params));
    rank_ = iccl_->rank();
    const std::uint32_t rank = rank_;
    Iccl::SessionHandlers handlers;
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
  Shared* sh_;
  std::uint32_t rank_ = kNoRank;
  std::unique_ptr<Iccl> iccl_;
};

/// One healing daemon per rank on its own node; returns pids in rank order.
std::vector<cluster::Pid> wire_heal_fabric(TestCluster& tc, Shared& sh,
                                           const comm::TopologySpec& topo,
                                           int n,
                                           std::uint32_t rndv_threshold,
                                           std::uint32_t grace_ms = 0) {
  comm::BootstrapSpec spec;
  spec.size = static_cast<std::uint32_t>(n);
  spec.topology = topo;
  spec.port = cluster::kToolFabricBasePort;
  spec.session = "heal";
  spec.rndv_threshold = rndv_threshold;
  spec.heal = true;
  spec.heal_grace_ms = grace_ms;
  for (int i = 0; i < n; ++i) {
    spec.hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  const Arg hosts = comm::hosts_arg(join_csv(spec.hosts));
  std::vector<cluster::Pid> pids;
  for (std::uint32_t r = 0; r < spec.size; ++r) {
    cluster::SpawnOptions opts;
    opts.executable = "raw_heal";
    opts.args = comm::bootstrap_args(spec, r, hosts);
    auto res = tc.machine.compute_node(static_cast<int>(r))
                   .spawn(std::make_unique<RawHealDaemon>(&sh),
                          std::move(opts));
    EXPECT_TRUE(res.is_ok());
    pids.push_back(res.value);
  }
  return pids;
}

Bytes patterned(std::size_t size, std::uint8_t salt) {
  Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 31) ^ salt);
  }
  return b;
}

/// Survivors = all ranks minus the plan's victims.
std::set<std::uint32_t> survivors_of(int n, const FaultPlan& plan) {
  std::set<std::uint32_t> out;
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    out.insert(r);
  }
  for (const std::uint32_t d : plan.dead_ranks()) out.erase(d);
  return out;
}

/// True once every survivor reports heal_idle() (no open adoption slots,
/// nobody mid-climb).
bool fabric_idle(const Shared& sh, const std::set<std::uint32_t>& alive) {
  for (const std::uint32_t r : alive) {
    auto it = sh.iccls.find(r);
    if (it == sh.iccls.end() || !it->second->heal_idle()) return false;
  }
  return true;
}

/// Non-asserting settle check: every survivor's upstream link targets a
/// live rank that owns it back. (Dead ranks linger as zombies in the sim,
/// so "the victim disappeared" is not observable; the healed link is.)
bool tree_healed(const Shared& sh, const std::set<std::uint32_t>& alive) {
  for (const std::uint32_t r : alive) {
    if (r == 0) continue;
    auto it = sh.iccls.find(r);
    if (it == sh.iccls.end()) return false;
    const std::uint32_t parent = it->second->parent_rank();
    if (alive.count(parent) == 0 || sh.iccls.count(parent) == 0) {
      return false;
    }
    const auto kids = sh.iccls.at(parent)->live_children();
    if (std::find(kids.begin(), kids.end(), r) == kids.end()) return false;
  }
  return true;
}

/// The standard post-kill settle predicate.
bool settled(const TestCluster& tc, const Shared& sh, const FaultPlan& plan,
             const std::set<std::uint32_t>& alive) {
  return tc.simulator.now() > plan.last_kill() && fabric_idle(sh, alive) &&
         tree_healed(sh, alive);
}

/// Tree invariants after healing: every survivor's upstream link targets its
/// nearest live ancestor (the pure plan's answer), the parent agrees it owns
/// the child, and walking parents from any survivor reaches the root without
/// cycles.
void check_reparented_tree(const Shared& sh,
                           const std::set<std::uint32_t>& alive) {
  ASSERT_FALSE(alive.empty());
  ASSERT_TRUE(sh.iccls.count(*alive.begin()) != 0);
  const comm::Topology& topo = sh.iccls.at(*alive.begin())->topology();
  std::set<std::uint32_t> dead;
  for (std::uint32_t r = 0; r < topo.size(); ++r) {
    if (alive.count(r) == 0) dead.insert(r);
  }
  for (const std::uint32_t r : alive) {
    if (r == 0) continue;
    ASSERT_TRUE(sh.iccls.count(r) != 0) << "rank " << r << " not alive";
    const std::uint32_t parent = sh.iccls.at(r)->parent_rank();
    ASSERT_TRUE(alive.count(parent) != 0)
        << "rank " << r << " parented on dead rank " << parent;
    EXPECT_EQ(std::optional<std::uint32_t>(parent),
              comm::nearest_live_ancestor(topo, r, dead))
        << "rank " << r << " is not under its nearest live ancestor";
    const auto kids = sh.iccls.at(parent)->live_children();
    EXPECT_TRUE(std::find(kids.begin(), kids.end(), r) != kids.end())
        << "rank " << parent << " does not own child " << r;
    // Climb to the root; a cycle would loop past `alive.size()` hops.
    std::uint32_t cur = r;
    std::size_t hops = 0;
    while (cur != 0) {
      ASSERT_LT(hops++, alive.size()) << "parent cycle at rank " << r;
      cur = sh.iccls.at(cur)->parent_rank();
      ASSERT_TRUE(alive.count(cur) != 0);
    }
  }
}

/// Broadcasts `payload` post-heal and asserts exactly-once byte-identical
/// delivery at every survivor, then gathers and asserts the root assembles
/// exactly the survivor set byte-identically.
void check_collectives_whole(TestCluster& tc, Shared& sh,
                             const std::set<std::uint32_t>& alive,
                             std::uint32_t tag, const Bytes& payload) {
  sh.iccls[0]->broadcast(tag, payload);
  ASSERT_TRUE(tc.run_until([&] {
    for (const std::uint32_t r : alive) {
      if (sh.bcast_by_tag[r].count(tag) == 0) return false;
    }
    return true;
  })) << "post-heal broadcast did not reach every survivor";
  for (const std::uint32_t r : alive) {
    EXPECT_EQ(sh.bcast_by_tag[r][tag], payload) << "rank " << r;
    EXPECT_EQ(sh.bcast_count[r][tag], 1) << "duplicate delivery at " << r;
  }

  const std::uint32_t gtag = tag + 1000;
  for (const std::uint32_t r : alive) {
    sh.iccls[r]->contribute(gtag, patterned(96 + r, static_cast<std::uint8_t>(r)));
  }
  ASSERT_TRUE(tc.run_until([&] { return sh.gather_fired[gtag] != 0; }))
      << "post-heal gather never completed";
  EXPECT_EQ(sh.gather_fired[gtag], 1);
  const auto& entries = sh.gather_by_tag[gtag];
  ASSERT_EQ(entries.size(), alive.size());
  std::set<std::uint32_t> seen;
  for (const auto& [origin, data] : entries) {
    EXPECT_TRUE(seen.insert(origin).second) << "dup origin " << origin;
    EXPECT_TRUE(alive.count(origin) != 0) << "dead origin " << origin;
    EXPECT_EQ(data, patterned(96 + origin, static_cast<std::uint8_t>(origin)))
        << "origin " << origin;
  }
}

// ---------------------------------------------------------------------------
// Idle kills, parametrized across the three fabrics (interior / mid-tree /
// leaf victims chosen per shape).

struct HealCase {
  comm::TopologySpec topo;
  int n;
  std::uint32_t kill;
};

class SelfHealFabric : public ::testing::TestWithParam<HealCase> {};

TEST_P(SelfHealFabric, IdleKillReparentsAndCollectivesRecover) {
  const HealCase c = GetParam();
  Shared sh;
  TestCluster tc(c.n);
  lmon::testing::TraceTailOnFailure tail(tc.machine);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  const auto pids = wire_heal_fabric(tc, sh, c.topo, c.n, kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == c.n; }));

  const FaultPlan plan =
      FaultPlan::single(tc.simulator.now() + sim::ms(5), c.kill);
  plan.arm(tc.machine, pids);
  const auto alive = survivors_of(c.n, plan);

  // Orphan count = the victim's direct children in the original tree.
  const comm::Topology topo(c.topo, static_cast<std::uint32_t>(c.n));
  const std::size_t orphans = topo.children_of(c.kill).size();

  ASSERT_TRUE(tc.run_until([&] { return settled(tc, sh, plan, alive); }))
      << "fabric never settled after the kill";
  check_reparented_tree(sh, alive);
  EXPECT_EQ(metrics.counter("iccl.heal.reattaches"),
            static_cast<double>(orphans));
  EXPECT_EQ(metrics.counter("iccl.heal.adoptions"),
            static_cast<double>(orphans));
  EXPECT_EQ(metrics.counter("iccl.heal.give_ups"), 0.0);

  check_collectives_whole(tc, sh, alive, 50, patterned(kChunk + 333, 0x5A));
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, SelfHealFabric,
    ::testing::Values(
        // k-ary:2, 7 ranks: rank 1 is a root child with children {3,4}.
        HealCase{{comm::TopologyKind::KAry, 2}, 7, 1},
        // binomial, 8 ranks: rank 4 heads the {4,5,6,7} subtree.
        HealCase{{comm::TopologyKind::Binomial, 0}, 8, 4},
        // flat, 6 ranks: every rank is a leaf under the root.
        HealCase{{comm::TopologyKind::Flat, 0}, 6, 3}),
    [](const ::testing::TestParamInfo<HealCase>& pinfo) {
      std::string name = pinfo.param.topo.to_string() + "_kill" +
                         std::to_string(pinfo.param.kill);
      for (char& c : name) {
        if (c == ':' || c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Mid-collective kills: the victim dies while a broadcast/gather is in
// flight through it.

TEST(SelfHeal, MidBcastEagerKillReplaysToOrphans) {
  const int n = 7;
  Shared sh;
  TestCluster tc(n);
  lmon::testing::TraceTailOnFailure tail(tc.machine);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  const auto pids = wire_heal_fabric(tc, sh, {comm::TopologyKind::KAry, 2},
                                     n, kEagerOnly);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  // Rank 1 receives the eager frame ~45us after send but only relays it
  // ~600us later (iccl_msg_handle); a kill in between means ranks 3/4 never
  // saw tag 60 and must get it from the root's replay after reattach.
  const Bytes payload = patterned(4096, 0x11);
  sh.iccls[0]->broadcast(60, payload);
  const FaultPlan plan =
      FaultPlan::single(tc.simulator.now() + sim::us(300), 1);
  plan.arm(tc.machine, pids);
  const auto alive = survivors_of(n, plan);

  ASSERT_TRUE(tc.run_until([&] {
    if (!settled(tc, sh, plan, alive)) return false;
    for (const std::uint32_t r : alive) {
      if (sh.bcast_by_tag[r].count(60) == 0) return false;
    }
    return true;
  })) << "broadcast never recovered across the kill";
  check_reparented_tree(sh, alive);
  for (const std::uint32_t r : alive) {
    EXPECT_EQ(sh.bcast_by_tag[r][60], payload) << "rank " << r;
    EXPECT_EQ(sh.bcast_count[r][60], 1) << "duplicate delivery at " << r;
  }
  // The root's send is long done, so both orphans get the round from its
  // history ring: one eager Bcast frame each, no RTS.
  EXPECT_EQ(metrics.counter("iccl.heal.bcast_replays"), 2.0);
  EXPECT_EQ(metrics.counter("iccl.heal.bcast_replay_bytes"), 2.0 * 4096);
  check_collectives_whole(tc, sh, alive, 61, patterned(2048, 0x22));
}

TEST(SelfHeal, MidBcastRendezvousKillResumesChunkStream) {
  const int n = 7;
  Shared sh;
  TestCluster tc(n);
  lmon::testing::TraceTailOnFailure tail(tc.machine);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  const auto pids = wire_heal_fabric(tc, sh, {comm::TopologyKind::KAry, 2},
                                     n, kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  // 6 chunks; the kill lands while rank 1 is mid-relay of the chunk train.
  const Bytes payload = patterned(5 * kChunk + 777, 0x33);
  sh.iccls[0]->broadcast(70, payload);
  const FaultPlan plan =
      FaultPlan::single(tc.simulator.now() + sim::ms(2), 1);
  plan.arm(tc.machine, pids);
  const auto alive = survivors_of(n, plan);

  ASSERT_TRUE(tc.run_until([&] {
    if (!settled(tc, sh, plan, alive)) return false;
    for (const std::uint32_t r : alive) {
      if (sh.bcast_by_tag[r].count(70) == 0) return false;
    }
    return true;
  })) << "rendezvous broadcast never recovered across the kill";
  check_reparented_tree(sh, alive);
  for (const std::uint32_t r : alive) {
    EXPECT_EQ(sh.bcast_by_tag[r][70], payload) << "rank " << r;
    EXPECT_EQ(sh.bcast_count[r][70], 1) << "duplicate delivery at " << r;
  }
  // Both orphans were mid-receive, but the root's send had retired by the
  // time they reattached: each resumes from its own offset out of the
  // root's history ring.
  EXPECT_EQ(metrics.counter("iccl.heal.bcast_replays"), 2.0);
  EXPECT_EQ(metrics.counter("iccl.heal.bcast_replay_bytes"), 656914.0);
  check_collectives_whole(tc, sh, alive, 71, patterned(kChunk, 0x44));
}

/// A rendezvous broadcast on a binary tree whose relay `kill` dies
/// `kill_after` into the round, with the counters its replay to the
/// orphans must show.
struct BcastReplayCase {
  const char* name;
  int n;
  std::uint32_t kill;
  std::size_t payload;
  sim::Time kill_after;
  double replays;
  double replay_bytes;
};

void PrintTo(const BcastReplayCase& c, std::ostream* os) { *os << c.name; }

class SelfHealBcastReplay : public ::testing::TestWithParam<BcastReplayCase> {
};

TEST_P(SelfHealBcastReplay, OrphansGetTheRoundExactlyOnce) {
  const BcastReplayCase c = GetParam();
  Shared sh;
  TestCluster tc(c.n);
  lmon::testing::TraceTailOnFailure tail(tc.machine);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  const auto pids = wire_heal_fabric(tc, sh, {comm::TopologyKind::KAry, 2},
                                     c.n, kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == c.n; }));

  const Bytes payload = patterned(c.payload, 0x3C);
  sh.iccls[0]->broadcast(75, payload);
  const FaultPlan plan =
      FaultPlan::single(tc.simulator.now() + c.kill_after, c.kill);
  plan.arm(tc.machine, pids);
  const auto alive = survivors_of(c.n, plan);

  ASSERT_TRUE(tc.run_until([&] {
    if (!settled(tc, sh, plan, alive)) return false;
    for (const std::uint32_t r : alive) {
      if (sh.bcast_by_tag[r].count(75) == 0) return false;
    }
    return true;
  })) << "rendezvous broadcast never recovered across the kill";
  check_reparented_tree(sh, alive);
  for (const std::uint32_t r : alive) {
    EXPECT_EQ(sh.bcast_by_tag[r][75], payload) << "rank " << r;
    EXPECT_EQ(sh.bcast_count[r][75], 1) << "duplicate delivery at " << r;
  }
  EXPECT_EQ(metrics.counter("iccl.heal.bcast_replays"), c.replays);
  EXPECT_EQ(metrics.counter("iccl.heal.bcast_replay_bytes"), c.replay_bytes);
  check_collectives_whole(tc, sh, alive, 76, patterned(kChunk, 0x4D));
}

INSTANTIATE_TEST_SUITE_P(
    Branches, SelfHealBcastReplay,
    ::testing::Values(
        // Rank 1 dies before it relays the RTS, and the orphans reattach
        // while the root still waits for its CTS: each orphan gets the RTS
        // alone and is parked on the stream. The stream starts before
        // their CTS arrive, so each one's CTS releases both chunks.
        BcastReplayCase{"LiveStreamAwaitingClearance", 7, 1, 2 * kChunk + 5,
                        sim::us(300), 2.0, 262154.0},
        // Rank 3 dies mid-relay of a long payload, and rank 1 is still
        // receiving and relaying it when the orphans reattach: each resumes
        // from its own offset up to rank 1's, then rides the live stream.
        BcastReplayCase{"LiveStreamResume", 15, 3, 64 * kChunk, sim::ms(5),
                        2.0, 2555904.0},
        // Rank 1 dies after relaying four of six chunks, and the root's
        // send has retired: each orphan gets chunks 4 and 5 from the
        // root's history ring.
        BcastReplayCase{"HistoryResume", 7, 1, 5 * kChunk + 777, sim::us(3100),
                        2.0, 132626.0}),
    [](const ::testing::TestParamInfo<BcastReplayCase>& pinfo) {
      return std::string(pinfo.param.name);
    });

/// A rendezvous broadcast of `chunks` chunks on a 7-rank binary heal
/// fabric, with relay 1 killed at every 200 us step from 100 to 3900 us
/// after the issue: orphans 3 and 4 reattach to the root at every stage of
/// the round (before its RTS, mid-stream, after the root's send is done),
/// and each must still deliver the round once, byte-identical.
class SelfHealBcastSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SelfHealBcastSweep, EveryKillTimeDeliversToEachSurvivorOnce) {
  const int n = 7;
  const std::uint32_t tag = 78;
  const Bytes payload = patterned(GetParam() * kChunk, 0x5D);
  for (sim::Time kill = sim::us(100); kill <= sim::us(3900);
       kill += sim::us(200)) {
    SCOPED_TRACE("kill at " + std::to_string(kill / sim::us(1)) + " us");
    Shared sh;
    TestCluster tc(n);
    lmon::testing::TraceTailOnFailure tail(tc.machine);
    const auto pids = wire_heal_fabric(tc, sh, {comm::TopologyKind::KAry, 2},
                                       n, kRndvAlways);
    ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));
    sh.iccls[0]->broadcast(tag, payload);
    const FaultPlan plan = FaultPlan::single(tc.simulator.now() + kill, 1);
    plan.arm(tc.machine, pids);
    const auto alive = survivors_of(n, plan);
    tc.run_until([&] {
      if (!settled(tc, sh, plan, alive)) return false;
      for (const std::uint32_t r : alive) {
        if (sh.bcast_by_tag[r].count(tag) == 0) return false;
      }
      return true;
    });
    // A late duplicate delivery would show up here.
    tc.run_until([] { return false; }, sim::ms(20));
    for (const std::uint32_t r : alive) {
      EXPECT_EQ(sh.bcast_count[r][tag], 1) << "rank " << r;
      EXPECT_EQ(sh.bcast_by_tag[r][tag], payload) << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, SelfHealBcastSweep,
                         ::testing::Values(std::size_t{2}, std::size_t{4},
                                           std::size_t{16}));

/// One gather on an `n`-rank binary heal fabric, rank r contributing
/// `size(r)` bytes, with relay 1 killed `kill_after` after the
/// contributions. Checks that the round fires once and that every
/// survivor's payload is present once and byte-identical; returns the
/// delivered origins.
std::set<std::uint32_t> gather_across_kill(
    std::uint32_t rndv_threshold,
    const std::function<std::size_t(std::uint32_t)>& size,
    sim::Time kill_after, obs::Metrics& metrics, int n = 7) {
  const std::uint32_t tag = 85;
  Shared sh;
  TestCluster tc(n);
  lmon::testing::TraceTailOnFailure tail(tc.machine);
  tc.machine.set_metrics(&metrics);
  const auto pids = wire_heal_fabric(tc, sh, {comm::TopologyKind::KAry, 2},
                                     n, rndv_threshold);
  std::set<std::uint32_t> origins;
  if (!tc.run_until([&] { return sh.ready == n; })) {
    ADD_FAILURE() << "fabric never came up";
    return origins;
  }
  std::map<std::uint32_t, Bytes> contrib;
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    contrib[r] = patterned(size(r), static_cast<std::uint8_t>(0x90 + r));
    sh.iccls[r]->contribute(tag, contrib[r]);
  }
  const FaultPlan plan =
      FaultPlan::single(tc.simulator.now() + kill_after, 1);
  plan.arm(tc.machine, pids);
  const auto alive = survivors_of(n, plan);
  if (!tc.run_until([&] {
        return sh.gather_fired[tag] != 0 && settled(tc, sh, plan, alive);
      })) {
    ADD_FAILURE() << "gather never completed across the kill";
    return origins;
  }
  // A late duplicate delivery would fire the handler again.
  tc.run_until([] { return false; }, sim::ms(20));
  EXPECT_EQ(sh.gather_fired[tag], 1);
  for (const auto& [origin, data] : sh.gather_by_tag[tag]) {
    EXPECT_TRUE(origins.insert(origin).second) << "dup origin " << origin;
    EXPECT_EQ(data, contrib.at(origin)) << "origin " << origin;
  }
  for (const std::uint32_t r : alive) {
    EXPECT_TRUE(origins.count(r) != 0) << "lost survivor payload " << r;
  }
  tc.machine.set_metrics(nullptr);
  return origins;
}

/// Upstream heal counters of one run, in a fixed order: re-announces,
/// resumes handled, resumes sent, re-queued bytes, origin drops.
std::vector<double> gather_heal_counters(const obs::Metrics& metrics) {
  return {metrics.counter("iccl.heal.gather_reannounces"),
          metrics.counter("iccl.heal.gather_resumes"),
          metrics.counter("iccl.heal.gather_resumes_sent"),
          metrics.counter("iccl.heal.gather_requeued_bytes"),
          metrics.counter("iccl.gather_drops")};
}

/// Both gather protocols and both payload shapes, each killed at every
/// 200 us step from 100 to 5900 us after the contributions.
struct GatherSweepCase {
  const char* name;
  std::uint32_t rndv_threshold;
  std::size_t base;  ///< rank r contributes base + 100 r bytes
};

void PrintTo(const GatherSweepCase& c, std::ostream* os) { *os << c.name; }

class SelfHealGatherSweep : public ::testing::TestWithParam<GatherSweepCase> {
};

TEST_P(SelfHealGatherSweep, EveryKillTimeDeliversEachSurvivorOnce) {
  const GatherSweepCase c = GetParam();
  for (sim::Time kill = sim::us(100); kill <= sim::us(5900);
       kill += sim::us(200)) {
    SCOPED_TRACE("kill at " + std::to_string(kill / sim::us(1)) + " us");
    obs::Metrics metrics;
    gather_across_kill(
        c.rndv_threshold,
        [&](std::uint32_t r) { return c.base + 100 * r; }, kill, metrics);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KillTimes, SelfHealGatherSweep,
    ::testing::Values(
        GatherSweepCase{"RendezvousSmall", kRndvAlways, 512},
        GatherSweepCase{"RendezvousChunked", kRndvAlways, kChunk + 100},
        GatherSweepCase{"EagerSmall", kEagerOnly, 512},
        GatherSweepCase{"EagerChunked", kEagerOnly, kChunk + 100}),
    [](const ::testing::TestParamInfo<GatherSweepCase>& pinfo) {
      return std::string(pinfo.param.name);
    });

/// An eager gather of 4 KiB per rank with relay 1 killed mid-round, and
/// the origins and upstream heal counters its recovery must show.
struct EagerGatherKillCase {
  const char* name;
  sim::Time kill_after;
  std::set<std::uint32_t> origins;
  std::vector<double> counters;  ///< as gather_heal_counters() orders them
};

void PrintTo(const EagerGatherKillCase& c, std::ostream* os) { *os << c.name; }

class SelfHealEagerGather
    : public ::testing::TestWithParam<EagerGatherKillCase> {};

TEST_P(SelfHealEagerGather, OrphansResendTheirSubtreeOnce) {
  const EagerGatherKillCase c = GetParam();
  obs::Metrics metrics;
  const auto origins = gather_across_kill(
      kEagerOnly, [](std::uint32_t) { return std::size_t{4096}; },
      c.kill_after, metrics);
  EXPECT_EQ(origins, c.origins);
  EXPECT_EQ(gather_heal_counters(metrics), c.counters);
}

INSTANTIATE_TEST_SUITE_P(
    Branches, SelfHealEagerGather,
    ::testing::Values(
        // Rank 1 dies before its own GatherUp leaves, after the orphans'
        // frames reached it: each orphan has already forwarded its eager
        // frame, so it re-sends it (the eager_sent branch). Rank 1's own
        // payload dies with it.
        EagerGatherKillCase{"ResendAfterForward", sim::us(300),
                            {0, 2, 3, 4, 5, 6},
                            {2, 0, 0, 0, 0}},
        // Rank 1's combined frame reached the root before it died: the
        // orphans' re-sent frames carry only origins the root already
        // holds, and its duplicate filter drops them.
        EagerGatherKillCase{"RootFiltersDuplicates", sim::us(1300),
                            {0, 1, 2, 3, 4, 5, 6},
                            {2, 0, 0, 0, 0}}),
    [](const ::testing::TestParamInfo<EagerGatherKillCase>& pinfo) {
      return std::string(pinfo.param.name);
    });

TEST(SelfHeal, StaleGatherCtsFromTheDeadParentIsIgnored) {
  // Relay 1 dies 3.1 ms after the contributions, with a GatherCts it sent
  // its child 3 still waiting out its handling cost. Acting on it after the
  // reattach streamed rank 3's subtree to the adopter ahead of the
  // GatherResume, which re-sent it: origins 7 and 8 arrived twice and the
  // round never fired. Rank 1's own payload was already upstream.
  obs::Metrics metrics;
  const auto origins = gather_across_kill(
      kRndvAlways, [](std::uint32_t r) { return std::size_t{512} + 100 * r; },
      sim::us(3100), metrics, /*n=*/15);
  EXPECT_EQ(origins.size(), 15u);
}

TEST(SelfHeal, MidGatherKillRecoversSurvivorPayloads) {
  const int n = 7;
  Shared sh;
  TestCluster tc(n);
  lmon::testing::TraceTailOnFailure tail(tc.machine);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  const auto pids = wire_heal_fabric(tc, sh, {comm::TopologyKind::KAry, 2},
                                     n, kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  // Big enough that rank 1 dies while relaying its subtree's chunk trains.
  const std::uint32_t tag = 80;
  std::map<std::uint32_t, Bytes> contrib;
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    contrib[r] = patterned(kChunk + 100 * r,
                           static_cast<std::uint8_t>(0x50 + r));
    sh.iccls[r]->contribute(tag, contrib[r]);
  }
  const FaultPlan plan =
      FaultPlan::single(tc.simulator.now() + sim::ms(2), 1);
  plan.arm(tc.machine, pids);
  const auto alive = survivors_of(n, plan);

  ASSERT_TRUE(tc.run_until([&] {
    return sh.gather_fired[tag] != 0 && settled(tc, sh, plan, alive);
  })) << "gather never completed across the kill";
  check_reparented_tree(sh, alive);
  EXPECT_EQ(sh.gather_fired[tag], 1);
  const auto& entries = sh.gather_by_tag[tag];
  std::map<std::uint32_t, Bytes> got;
  for (const auto& [origin, data] : entries) {
    EXPECT_TRUE(got.emplace(origin, data).second)
        << "dup origin " << origin;
  }
  // Every survivor's payload assembles byte-identically; the victim's own
  // contribution may legitimately be present (already relayed) or absent
  // (died with it) - it must not be corrupt if present.
  for (const std::uint32_t r : alive) {
    ASSERT_TRUE(got.count(r) != 0) << "lost survivor payload " << r;
    EXPECT_EQ(got.at(r), contrib.at(r)) << "origin " << r;
  }
  if (got.count(1) != 0) {
    EXPECT_EQ(got.at(1), contrib.at(1));
  }
  // Both orphans re-announce and resume; rank 1's own partial origin is
  // dropped. Both resumes re-queue the orphan's whole payload: rank 3 also
  // holds a GatherCts from rank 1, which it ignores as it arrived on the
  // dead link.
  EXPECT_EQ(gather_heal_counters(metrics),
            (std::vector<double>{2, 2, 2, 131772, 1}));

  check_collectives_whole(tc, sh, alive, 81, patterned(512, 0x66));
}

TEST(SelfHeal, MidRoundKillWithTwoActiveSessionsReplaysPerSessionOnce) {
  // Persistent multiplexed service under failure: two virtual sessions run
  // rendezvous collectives over one healing fabric, a comm daemon dies
  // mid-relay of both chunk trains, and each session's replay must be
  // exactly-once with zero cross-session frame leaks. Both sessions use
  // the *same* within-session tag so a mis-keyed frame would surface as a
  // wrong-payload delivery, not just a count skew.
  const int n = 7;
  Shared sh;
  TestCluster tc(n);
  lmon::testing::TraceTailOnFailure tail(tc.machine);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  const auto pids = wire_heal_fabric(tc, sh, {comm::TopologyKind::KAry, 2},
                                     n, kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  // Per-session observation state, keyed by virtual session id.
  struct VsObs {
    std::map<std::uint32_t, std::map<std::uint32_t, int>> bcast_count;
    std::map<std::uint32_t, std::map<std::uint32_t, Bytes>> bcast_by_tag;
    std::map<std::uint32_t, int> gather_fired;
    std::map<std::uint32_t, std::vector<std::pair<std::uint32_t, Bytes>>>
        gather_by_tag;
  };
  std::map<std::uint32_t, VsObs> vs;
  int stray_session_frames = 0;  // data frame keyed outside {0, 1, 2}
  for (auto& [rank, iccl] : sh.iccls) {
    for (const std::uint32_t vsid : {1u, 2u}) {
      Iccl::SessionHandlers h;
      const std::uint32_t r = rank;
      h.on_bcast = [&vs, vsid, r](std::uint32_t tag, const ByteSlice& d) {
        vs[vsid].bcast_count[r][tag] += 1;
        vs[vsid].bcast_by_tag[r][tag] = d.to_bytes();
      };
      h.on_gather = [&vs, vsid](
                        std::uint32_t tag,
                        std::vector<std::pair<std::uint32_t, Bytes>> e) {
        vs[vsid].gather_fired[tag] += 1;
        vs[vsid].gather_by_tag[tag] = std::move(e);
      };
      iccl->bind_session(vsid, std::move(h));
    }
    iccl->set_keyed_frame_tap(
        [&stray_session_frames](Iccl::Kind, StreamKey key, std::uint32_t,
                                std::size_t) {
          if (key.session > 2) ++stray_session_frames;
        });
  }

  // Same tag, different per-session payloads; chunk trains long enough
  // that rank 1 dies mid-relay with both sessions' streams open.
  const std::uint32_t tag = 120;
  const Bytes pay1 = patterned(5 * kChunk + 777, 0xA1);
  const Bytes pay2 = patterned(5 * kChunk + 333, 0xB2);
  sh.iccls[0]->broadcast(StreamKey{1, tag}, pay1);
  sh.iccls[0]->broadcast(StreamKey{2, tag}, pay2);
  const std::uint32_t gtag = 121;
  std::map<std::uint32_t, std::map<std::uint32_t, Bytes>> contrib;
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    for (const std::uint32_t vsid : {1u, 2u}) {
      contrib[vsid][r] = patterned(
          kChunk / 2 + 64 * r, static_cast<std::uint8_t>(0x10 * vsid + r));
      sh.iccls[r]->contribute(StreamKey{vsid, gtag}, contrib[vsid][r]);
    }
  }

  const FaultPlan plan =
      FaultPlan::single(tc.simulator.now() + sim::ms(2), 1);
  plan.arm(tc.machine, pids);
  const auto alive = survivors_of(n, plan);

  ASSERT_TRUE(tc.run_until([&] {
    if (!settled(tc, sh, plan, alive)) return false;
    for (const std::uint32_t vsid : {1u, 2u}) {
      if (vs[vsid].gather_fired[gtag] == 0) return false;
      for (const std::uint32_t r : alive) {
        if (vs[vsid].bcast_by_tag[r].count(tag) == 0) return false;
      }
    }
    return true;
  })) << "multiplexed collectives never recovered across the kill";
  check_reparented_tree(sh, alive);

  for (const std::uint32_t vsid : {1u, 2u}) {
    const Bytes& want = vsid == 1 ? pay1 : pay2;
    for (const std::uint32_t r : alive) {
      EXPECT_EQ(vs[vsid].bcast_by_tag[r][tag], want)
          << "session " << vsid << " rank " << r;
      EXPECT_EQ(vs[vsid].bcast_count[r][tag], 1)
          << "duplicate session-" << vsid << " delivery at rank " << r;
    }
    EXPECT_EQ(vs[vsid].gather_fired[gtag], 1) << "session " << vsid;
    std::map<std::uint32_t, Bytes> got;
    for (const auto& [origin, data] : vs[vsid].gather_by_tag[gtag]) {
      EXPECT_TRUE(got.emplace(origin, data).second)
          << "session " << vsid << " dup origin " << origin;
    }
    for (const std::uint32_t r : alive) {
      ASSERT_TRUE(got.count(r) != 0)
          << "session " << vsid << " lost survivor payload " << r;
      EXPECT_EQ(got.at(r), contrib[vsid].at(r))
          << "session " << vsid << " origin " << r;
    }
    if (got.count(1) != 0) {
      EXPECT_EQ(got.at(1), contrib[vsid].at(1));
    }
  }

  // No frame was ever keyed outside the bound sessions and none was
  // dropped for want of a handler: the namespaces stayed watertight.
  EXPECT_EQ(stray_session_frames, 0);
  EXPECT_EQ(metrics.counter("iccl.mux.unbound_drops"), 0.0);
  // Each orphan re-announces and resumes both sessions' rounds; each
  // session drops rank 1's own partial origin. Rank 3's session-1 round
  // waits for its resume too: the GatherCts rank 1 sent it arrived on the
  // dead link and is ignored.
  EXPECT_EQ(gather_heal_counters(metrics),
            (std::vector<double>{4, 4, 4, 131968, 2}));

  // The infrastructure session is untouched by the multiplexed traffic.
  check_collectives_whole(tc, sh, alive, 130, patterned(1024, 0xCC));
}

// ---------------------------------------------------------------------------
// Correlated and cascading failures.

TEST(SelfHeal, CorrelatedSubtreeLossResolvesByGraceTimer) {
  const int n = 7;
  Shared sh;
  TestCluster tc(n);
  lmon::testing::TraceTailOnFailure tail(tc.machine);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  const auto pids = wire_heal_fabric(tc, sh, {comm::TopologyKind::KAry, 2},
                                     n, kRndvAlways, /*grace_ms=*/50);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  // The whole {1,3,4} rack dies at once: no orphan ever reattaches, so the
  // root's adoption slot must resolve by grace expiry, not coverage.
  const comm::Topology topo({comm::TopologyKind::KAry, 2},
                            static_cast<std::uint32_t>(n));
  const FaultPlan plan =
      FaultPlan::subtree(tc.simulator.now() + sim::ms(5), topo, 1);
  plan.arm(tc.machine, pids);
  const auto alive = survivors_of(n, plan);

  // A gather opened before the loss completes with the survivor set once
  // the grace window closes.
  const std::uint32_t tag = 90;
  for (const std::uint32_t r : alive) {
    sh.iccls[r]->contribute(tag, patterned(256, static_cast<std::uint8_t>(r)));
  }
  ASSERT_TRUE(tc.run_until([&] {
    return sh.gather_fired[tag] != 0 && settled(tc, sh, plan, alive);
  })) << "gather never completed after whole-subtree loss";
  check_reparented_tree(sh, alive);
  EXPECT_GE(metrics.counter("iccl.heal.grace_expired"), 1.0);
  EXPECT_EQ(metrics.counter("iccl.heal.reattaches"), 0.0);
  const auto& entries = sh.gather_by_tag[tag];
  std::set<std::uint32_t> origins;
  for (const auto& [origin, data] : entries) origins.insert(origin);
  EXPECT_EQ(origins, alive);

  check_collectives_whole(tc, sh, alive, 91, patterned(1024, 0x77));
}

TEST(SelfHeal, CascadingKillsRehealAlreadyHealedRanks) {
  const int n = 15;  // kary:2 depth 3: 3's children {7,8}, 1's {3,4}
  Shared sh;
  TestCluster tc(n);
  lmon::testing::TraceTailOnFailure tail(tc.machine);
  const auto pids = wire_heal_fabric(tc, sh, {comm::TopologyKind::KAry, 2},
                                     n, kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  // 3 dies first (7/8 reattach to 1), then 1 dies (7/8 must reparent a
  // second time, 4 a first time; everyone lands under the root).
  const FaultPlan plan = FaultPlan::cascading(
      tc.simulator.now() + sim::ms(5), sim::seconds(1), {3, 1});
  plan.arm(tc.machine, pids);
  const auto alive = survivors_of(n, plan);

  ASSERT_TRUE(tc.run_until([&] { return settled(tc, sh, plan, alive); }))
      << "fabric never settled after the cascade";
  check_reparented_tree(sh, alive);
  // 7 and 8 were orphaned twice and must have climbed to a live ancestor.
  EXPECT_EQ(sh.iccls[7]->parent_rank(), 0u);
  EXPECT_EQ(sh.iccls[8]->parent_rank(), 0u);
  EXPECT_EQ(sh.iccls[4]->parent_rank(), 0u);

  check_collectives_whole(tc, sh, alive, 100, patterned(3000, 0x88));
}

TEST(SelfHeal, CorrelatedAncestorChainLossClimbsPastDeadRanks) {
  const int n = 15;
  Shared sh;
  TestCluster tc(n);
  lmon::testing::TraceTailOnFailure tail(tc.machine);
  const auto pids = wire_heal_fabric(tc, sh, {comm::TopologyKind::KAry, 2},
                                     n, kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  // 1 and 3 die in the same instant: 7/8 dial dead 1, exhaust the retry
  // budget, and climb on to the root; 4 reattaches directly.
  const FaultPlan plan = FaultPlan::correlated(
      tc.simulator.now() + sim::ms(5), {1, 3});
  plan.arm(tc.machine, pids);
  const auto alive = survivors_of(n, plan);

  ASSERT_TRUE(tc.run_until([&] { return settled(tc, sh, plan, alive); }))
      << "fabric never settled after correlated ancestor loss";
  check_reparented_tree(sh, alive);
  EXPECT_EQ(sh.iccls[7]->parent_rank(), 0u);
  EXPECT_EQ(sh.iccls[8]->parent_rank(), 0u);

  check_collectives_whole(tc, sh, alive, 110, patterned(2222, 0x99));
}

// ---------------------------------------------------------------------------
// Elastic shrink: a graceful leave() heals like a death but is accounted
// as a departure, and in-flight payloads still assemble.

TEST(SelfHeal, GracefulLeaveShrinksWithoutPayloadLoss) {
  const int n = 7;
  Shared sh;
  TestCluster tc(n);
  lmon::testing::TraceTailOnFailure tail(tc.machine);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  wire_heal_fabric(tc, sh, {comm::TopologyKind::KAry, 2}, n, kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  std::set<std::uint32_t> alive;
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    alive.insert(r);
  }
  alive.erase(1);
  sh.iccls[1]->leave();
  ASSERT_TRUE(tc.run_until([&] {
    return metrics.counter("iccl.heal.leaves_observed") >= 1.0 &&
           fabric_idle(sh, alive) && tree_healed(sh, alive);
  })) << "fabric never settled after the leave";
  check_reparented_tree(sh, alive);
  EXPECT_EQ(metrics.counter("iccl.heal.leaves"), 1.0);
  EXPECT_EQ(metrics.counter("iccl.heal.leaves_observed"), 1.0);
  EXPECT_EQ(metrics.counter("iccl.heal.give_ups"), 0.0);

  check_collectives_whole(tc, sh, alive, 120, patterned(kChunk + 50, 0xAB));
}

// Heal disabled keeps the historical semantics: the dead subtree stays
// detached and nobody reparents (regression guard for the default path).
TEST(SelfHeal, DisabledHealKeepsLegacyDropSemantics) {
  const int n = 7;
  Shared sh;
  TestCluster tc(n);
  comm::BootstrapSpec spec;
  spec.size = n;
  spec.topology = {comm::TopologyKind::KAry, 2};
  spec.port = cluster::kToolFabricBasePort;
  spec.session = "noheal";
  spec.rndv_threshold = kRndvAlways;
  for (int i = 0; i < n; ++i) {
    spec.hosts.push_back(tc.machine.compute_node(i).hostname());
  }
  const Arg hosts = comm::hosts_arg(join_csv(spec.hosts));
  std::vector<cluster::Pid> pids;
  for (std::uint32_t r = 0; r < spec.size; ++r) {
    cluster::SpawnOptions opts;
    opts.executable = "raw_heal";
    opts.args = comm::bootstrap_args(spec, r, hosts);
    auto res = tc.machine.compute_node(static_cast<int>(r))
                   .spawn(std::make_unique<RawHealDaemon>(&sh),
                          std::move(opts));
    ASSERT_TRUE(res.is_ok());
    pids.push_back(res.value);
  }
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));
  ASSERT_FALSE(sh.iccls[3]->heal_enabled());

  tc.machine.find_process(pids[1])->exit(9);
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));
  // Orphans 3/4 never re-dial anyone; their upstream link simply stays the
  // (dead) topology parent.
  ASSERT_TRUE(sh.iccls.count(3) != 0);
  EXPECT_EQ(sh.iccls[3]->parent_rank(), 1u);
  const auto kids = sh.iccls[0]->live_children();
  EXPECT_TRUE(std::find(kids.begin(), kids.end(), 3u) == kids.end());
}

}  // namespace
}  // namespace lmon::core
