// Unit tests for the comm::Topology layer: parent/children consistency,
// subtree partitions, depth and edge counts for every tree family, across
// rank/size sweeps including size=1 and non-power-of-two sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "comm/bootstrap.hpp"
#include "comm/heal.hpp"
#include "comm/topology.hpp"

namespace lmon::comm {
namespace {

// --- spec parsing ------------------------------------------------------------

TEST(TopologySpec, RoundTripsThroughString) {
  for (const TopologySpec spec :
       {TopologySpec{TopologyKind::KAry, 7}, TopologySpec{TopologyKind::KAry, 1},
        TopologySpec{TopologyKind::Binomial, 0},
        TopologySpec{TopologyKind::Flat, 0}}) {
    auto back = TopologySpec::parse(spec.to_string());
    ASSERT_TRUE(back.has_value()) << spec.to_string();
    EXPECT_EQ(back->kind, spec.kind);
    if (spec.kind == TopologyKind::KAry) {
      EXPECT_EQ(back->arity, spec.arity);
    }
  }
}

TEST(TopologySpec, ParseRejectsGarbage) {
  EXPECT_FALSE(TopologySpec::parse("").has_value());
  EXPECT_FALSE(TopologySpec::parse("ring").has_value());
  EXPECT_FALSE(TopologySpec::parse("kary:x").has_value());
}

TEST(TopologySpec, ParseAcceptsBareKindAndArity) {
  auto k = TopologySpec::parse("kary:32");
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(k->kind, TopologyKind::KAry);
  EXPECT_EQ(k->arity, 32u);
  EXPECT_EQ(TopologySpec::parse("binomial")->kind, TopologyKind::Binomial);
  EXPECT_EQ(TopologySpec::parse("flat")->kind, TopologyKind::Flat);
}

// --- fixed small shapes ------------------------------------------------------

TEST(Topology, KAryMatchesHeapLayout) {
  Topology t({TopologyKind::KAry, 2}, 7);
  EXPECT_EQ(t.children_of(0), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(t.children_of(1), (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(t.children_of(2), (std::vector<std::uint32_t>{5, 6}));
  EXPECT_TRUE(t.children_of(3).empty());
  EXPECT_FALSE(t.parent_of(0).has_value());
  EXPECT_EQ(t.parent_of(1), 0u);
  EXPECT_EQ(t.parent_of(6), 2u);
  EXPECT_EQ(t.depth(), 2u);
}

TEST(Topology, KAryFanoutOneIsAChain) {
  Topology t({TopologyKind::KAry, 1}, 4);
  EXPECT_EQ(t.children_of(0), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(t.children_of(2), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(t.parent_of(3), 2u);
  EXPECT_EQ(t.depth(), 3u);
}

TEST(Topology, KAryFanoutZeroIsTreatedAsAChain) {
  Topology t({TopologyKind::KAry, 0}, 3);
  EXPECT_EQ(t.children_of(0), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(t.parent_of(2), 1u);
}

TEST(Topology, BinomialClearsLowestSetBit) {
  Topology t({TopologyKind::Binomial, 0}, 8);
  // Root owns every power of two.
  EXPECT_EQ(t.children_of(0), (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(t.children_of(4), (std::vector<std::uint32_t>{5, 6}));
  EXPECT_EQ(t.children_of(6), (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(t.parent_of(7), 6u);
  EXPECT_EQ(t.parent_of(6), 4u);
  EXPECT_EQ(t.parent_of(5), 4u);
  // log2(8) levels.
  EXPECT_EQ(t.depth(), 3u);
}

TEST(Topology, FlatHangsEveryoneOffRoot) {
  Topology t({TopologyKind::Flat, 0}, 5);
  EXPECT_EQ(t.children_of(0), (std::vector<std::uint32_t>{1, 2, 3, 4}));
  for (std::uint32_t r = 1; r < 5; ++r) {
    EXPECT_EQ(t.parent_of(r), 0u);
    EXPECT_TRUE(t.children_of(r).empty());
  }
  EXPECT_EQ(t.depth(), 1u);
}

TEST(Topology, SingletonHasNoEdges) {
  for (const TopologyKind kind :
       {TopologyKind::KAry, TopologyKind::Binomial, TopologyKind::Flat}) {
    Topology t({kind, 2}, 1);
    EXPECT_TRUE(t.children_of(0).empty());
    EXPECT_FALSE(t.parent_of(0).has_value());
    EXPECT_EQ(t.depth(), 0u);
    EXPECT_EQ(t.edge_count(), 0u);
    EXPECT_EQ(t.subtree_of(0), (std::vector<std::uint32_t>{0}));
  }
}

TEST(Topology, OutOfRangeQueriesAreEmpty) {
  Topology t({TopologyKind::KAry, 2}, 4);
  EXPECT_TRUE(t.children_of(9).empty());
  EXPECT_FALSE(t.parent_of(9).has_value());
  EXPECT_TRUE(t.subtree_of(9).empty());
}

// --- property sweep over every family ----------------------------------------

struct SweepParam {
  TopologySpec spec;
  std::uint32_t size;
};

class TopologyProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TopologyProperty, ParentChildConsistency) {
  const auto [spec, size] = GetParam();
  Topology t(spec, size);
  for (std::uint32_t r = 0; r < size; ++r) {
    for (std::uint32_t c : t.children_of(r)) {
      EXPECT_LT(c, size);
      EXPECT_EQ(t.parent_of(c), r);
    }
    if (r != 0) {
      auto p = t.parent_of(r);
      ASSERT_TRUE(p.has_value());
      EXPECT_LT(*p, r) << "parents precede children in rank order";
      auto siblings = t.children_of(*p);
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), r),
                siblings.end());
    }
  }
}

TEST_P(TopologyProperty, EveryRankReachesRootAndDepthAgrees) {
  const auto [spec, size] = GetParam();
  Topology t(spec, size);
  std::uint32_t max_depth = 0;
  for (std::uint32_t r = 0; r < size; ++r) {
    std::uint32_t cur = r;
    std::uint32_t hops = 0;
    while (cur != 0) {
      auto p = t.parent_of(cur);
      ASSERT_TRUE(p.has_value());
      cur = *p;
      ASSERT_LE(++hops, size);
    }
    EXPECT_EQ(t.depth_of(r), hops);
    max_depth = std::max(max_depth, hops);
  }
  EXPECT_EQ(t.depth(), max_depth);
}

TEST(Topology, DepthClosedFormMatchesTheDeepestRankAtEverySize) {
  // depth() is a closed form per family (the model's crossover scans ask it
  // at every node count); walking every rank is the reference.
  const TopologySpec specs[] = {
      {TopologyKind::KAry, 1},     {TopologyKind::KAry, 2},
      {TopologyKind::KAry, 3},     {TopologyKind::KAry, 8},
      {TopologyKind::KAry, 32},    {TopologyKind::KAry, 0},
      {TopologyKind::Binomial, 0}, {TopologyKind::Flat, 0}};
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t n = 0; n <= 66; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {100, 257, 512, 1000, 1024, 1025, 4097});
  for (const auto& spec : specs) {
    for (std::uint32_t n : sizes) {
      const Topology t(spec, n);
      std::uint32_t deepest = 0;
      for (std::uint32_t r = 0; r < n; ++r) {
        deepest = std::max(deepest, t.depth_of(r));
      }
      EXPECT_EQ(t.depth(), deepest) << spec.to_string() << " n=" << n;
    }
  }
}

TEST_P(TopologyProperty, ConnectedTreeHasSizeMinusOneEdges) {
  const auto [spec, size] = GetParam();
  Topology t(spec, size);
  EXPECT_EQ(t.edge_count(), size == 0 ? 0u : static_cast<std::uint64_t>(size) - 1u);
}

TEST_P(TopologyProperty, RootSubtreeCoversAllRanksExactlyOnce) {
  const auto [spec, size] = GetParam();
  Topology t(spec, size);
  const auto all = t.subtree_of(0);
  ASSERT_EQ(all.size(), size);
  for (std::uint32_t r = 0; r < size; ++r) EXPECT_EQ(all[r], r);

  // The root's children's subtrees partition the non-root ranks.
  std::vector<bool> covered(size, false);
  covered[0] = true;
  for (std::uint32_t c : t.children_of(0)) {
    for (std::uint32_t r : t.subtree_of(c)) {
      EXPECT_FALSE(covered[r]) << "rank " << r << " covered twice";
      covered[r] = true;
    }
  }
  for (std::uint32_t r = 0; r < size; ++r) {
    EXPECT_TRUE(covered[r]) << "rank " << r << " not covered";
  }
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  // size=1, powers of two, off-by-ones and awkward non-powers-of-two.
  const std::uint32_t sizes[] = {1, 2, 3, 5, 15, 16, 17, 64, 100, 333, 1000, 1024};
  for (std::uint32_t size : sizes) {
    for (std::uint32_t k : {1u, 2u, 3u, 7u, 32u, 64u}) {
      out.push_back({{TopologyKind::KAry, k}, size});
    }
    out.push_back({{TopologyKind::Binomial, 0}, size});
    out.push_back({{TopologyKind::Flat, 0}, size});
  }
  // Extra k-ary shapes the daemon fabrics run at: a fanout outside the
  // grid, an odd-sized chain and a 3-ary tree with a partial last level.
  out.push_back({{TopologyKind::KAry, 8}, 64});
  out.push_back({{TopologyKind::KAry, 1}, 9});
  out.push_back({{TopologyKind::KAry, 3}, 13});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyProperty, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<SweepParam>& pinfo) {
      std::string name = pinfo.param.spec.to_string() + "_n" +
                         std::to_string(pinfo.param.size);
      for (char& c : name) {
        if (c == ':' || c == '-') c = '_';
      }
      return name;
    });

// --- contiguous chunking (launch-protocol subtree splits) --------------------

TEST(SplitContiguous, CoversEveryIndexOnceInOrder) {
  for (std::size_t count : {0u, 1u, 2u, 7u, 8u, 64u, 513u}) {
    for (std::uint32_t fanout : {0u, 1u, 2u, 3u, 32u, 1000u}) {
      const auto chunks = split_contiguous(count, fanout);
      std::size_t pos = 0;
      for (const auto& [begin, len] : chunks) {
        EXPECT_EQ(begin, pos);
        EXPECT_GT(len, 0u);
        pos += len;
      }
      EXPECT_EQ(pos, count);
      if (count > 0) {
        EXPECT_LE(chunks.size(),
                  static_cast<std::size_t>(fanout == 0 ? 1 : fanout));
      }
    }
  }
}

TEST(SplitContiguous, BalancesWithinOne) {
  const auto chunks = split_contiguous(10, 3);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].second, 4u);
  EXPECT_EQ(chunks[1].second, 3u);
  EXPECT_EQ(chunks[2].second, 3u);
}

// --- capacity-weighted chunking (topology-aware placement) --------------------

TEST(SplitWeighted, CoversEveryIndexOnceInOrder) {
  for (std::size_t count : {0u, 1u, 2u, 7u, 64u, 513u}) {
    for (const auto& weights :
         {std::vector<double>{1},
          std::vector<double>{1, 1, 1},
          std::vector<double>{3, 1},
          std::vector<double>{0.5, 0.25, 0.25},
          std::vector<double>{0, 2, 1},
          std::vector<double>{1e-9, 1e9}}) {
      const auto chunks = split_weighted(count, weights);
      if (count == 0) {
        EXPECT_TRUE(chunks.empty());
        continue;
      }
      ASSERT_EQ(chunks.size(), weights.size());
      std::size_t pos = 0;
      for (const auto& [begin, len] : chunks) {
        EXPECT_EQ(begin, pos);
        pos += len;
      }
      EXPECT_EQ(pos, count);
    }
  }
}

TEST(SplitWeighted, ProportionalWithLargestRemainder) {
  // 10 items at weights 3:1:1 -> exact shares 6:2:2.
  const auto exact = split_weighted(10, {3, 1, 1});
  ASSERT_EQ(exact.size(), 3u);
  EXPECT_EQ(exact[0].second, 6u);
  EXPECT_EQ(exact[1].second, 2u);
  EXPECT_EQ(exact[2].second, 2u);
  // 10 items at 1:1:1 -> ideal 3.33 each; the leftover item goes to the
  // lowest index among equal fractional parts (deterministic tie-break).
  const auto tied = split_weighted(10, {1, 1, 1});
  EXPECT_EQ(tied[0].second, 4u);
  EXPECT_EQ(tied[1].second, 3u);
  EXPECT_EQ(tied[2].second, 3u);
}

TEST(SplitWeighted, ZeroWeightsYieldEmptyBlocks) {
  const auto chunks = split_weighted(8, {0, 1, 0, 1});
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].second, 0u);
  EXPECT_EQ(chunks[1].second, 4u);
  EXPECT_EQ(chunks[2].second, 0u);
  EXPECT_EQ(chunks[3].second, 4u);
  // Negative weights are clamped to zero, not allowed to steal items.
  const auto clamped = split_weighted(6, {-5, 1, 2});
  EXPECT_EQ(clamped[0].second, 0u);
  EXPECT_EQ(clamped[1].second, 2u);
  EXPECT_EQ(clamped[2].second, 4u);
}

TEST(SplitWeighted, AllZeroWeightsFallBackToNearEqual) {
  const auto chunks = split_weighted(10, {0, 0, 0});
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].second, 4u);
  EXPECT_EQ(chunks[1].second, 3u);
  EXPECT_EQ(chunks[2].second, 3u);
}

TEST(SplitWeighted, MatchesEqualSplitForUniformWeights) {
  for (std::size_t count : {1u, 9u, 64u, 100u}) {
    const auto weighted = split_weighted(count, {2, 2, 2, 2});
    const auto equal = split_contiguous(count, 4);
    for (std::size_t i = 0; i < equal.size(); ++i) {
      EXPECT_EQ(weighted[i].first, equal[i].first) << count << " " << i;
      EXPECT_EQ(weighted[i].second, equal[i].second) << count << " " << i;
    }
  }
}

// --- bootstrap argv round trip ----------------------------------------------

TEST(Bootstrap, ArgsRoundTripWithExplicitRank) {
  BootstrapSpec spec;
  spec.size = 4;
  spec.topology = {TopologyKind::Binomial, 0};
  spec.port = 9100;
  spec.session = "s3p77";
  spec.fe_host = "atlas-fe";
  spec.fe_port = 7050;
  spec.hosts = {"a0", "a1", "a2", "a3"};

  const auto args = bootstrap_args(spec, 2u, hosts_arg(join_csv(spec.hosts)));
  const auto p = parse_bootstrap(args);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->rank, 2u);
  EXPECT_EQ(p->size, 4u);
  EXPECT_EQ(p->topology.kind, TopologyKind::Binomial);
  EXPECT_EQ(p->port, 9100);
  EXPECT_EQ(p->session, "s3p77");
  EXPECT_EQ(p->fe_host, "atlas-fe");
  EXPECT_EQ(p->fe_port, 7050);
  ASSERT_EQ(p->hosts.size(), spec.hosts.size());
  for (std::size_t r = 0; r < spec.hosts.size(); ++r) {
    EXPECT_EQ(p->hosts.at(r), spec.hosts[r]);
  }
}

TEST(Bootstrap, RankDerivedFromHostPosition) {
  BootstrapSpec spec;
  spec.size = 3;
  spec.port = 9100;
  spec.session = "s0";
  spec.hosts = {"n0", "n1", "n2"};

  const auto args =
      bootstrap_args(spec, std::nullopt, hosts_arg(join_csv(spec.hosts)));
  // Each daemon resolves its own rank from its hostname.
  for (std::uint32_t r = 0; r < 3; ++r) {
    const auto p = parse_bootstrap(args, spec.hosts[r]);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->rank, r);
  }
  // Unknown host or no host at all: not a LaunchMON daemon.
  EXPECT_FALSE(parse_bootstrap(args, "stranger").has_value());
  EXPECT_FALSE(parse_bootstrap(args).has_value());
}

TEST(Bootstrap, KAryTopoSpellingParses) {
  const Argv args{
      "--lmon-rank=1", "--lmon-size=2", "--lmon-topo=kary:4",
      "--lmon-port=9000", "--lmon-hosts=x,y"};
  const auto p = parse_bootstrap(args);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->topology.kind, TopologyKind::KAry);
  EXPECT_EQ(p->topology.arity, 4u);
}

TEST(Bootstrap, HostListDropsEmptySegments) {
  // As split_csv does: "a,,b" is two hosts, and ranks follow positions.
  const Argv args{"--lmon-size=2", "--lmon-topo=kary:2", "--lmon-port=9000",
                  "--lmon-hosts=a,,b"};
  const auto p = parse_bootstrap(args, "b");
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->hosts.size(), 2u);
  EXPECT_EQ(p->hosts.at(0), "a");
  EXPECT_EQ(p->hosts.at(1), "b");
  EXPECT_EQ(p->rank, 1u);
  EXPECT_THROW((void)p->hosts.at(2), std::out_of_range);
  // The size must still match the entries that remain.
  EXPECT_FALSE(parse_bootstrap({"--lmon-rank=0", "--lmon-size=3",
                                "--lmon-topo=kary:2", "--lmon-port=1",
                                "--lmon-hosts=a,,b"})
                   .has_value());
}

TEST(Bootstrap, RejectsArgvWithoutTopo) {
  // The tree shape is required like size, port and hosts: there is no
  // implied default fan-out.
  EXPECT_FALSE(parse_bootstrap({"--lmon-rank=1", "--lmon-size=2",
                                "--lmon-port=9000", "--lmon-hosts=x,y"})
                   .has_value());
}

TEST(Bootstrap, ParsesHandWrittenDaemonArgv) {
  const Argv args{
      "--lmon-rank=3",    "--lmon-size=8",          "--lmon-topo=kary:2",
      "--lmon-port=7100", "--lmon-session=s1p1000",
      "--lmon-hosts=a,b,c,d,e,f,g,h"};
  const auto p = parse_bootstrap(args);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->rank, 3u);
  EXPECT_EQ(p->size, 8u);
  EXPECT_EQ(p->topology.kind, TopologyKind::KAry);
  EXPECT_EQ(p->topology.arity, 2u);
  EXPECT_EQ(p->port, 7100);
  EXPECT_EQ(p->session, "s1p1000");
  EXPECT_EQ(p->hosts.size(), 8u);
}

TEST(Bootstrap, RejectsInconsistentArgv) {
  // rank >= size
  EXPECT_FALSE(parse_bootstrap({"--lmon-rank=8", "--lmon-size=8",
                                "--lmon-topo=kary:2", "--lmon-port=1",
                                "--lmon-hosts=a,b,c,d,e,f,g,h"})
                   .has_value());
  // host list length mismatch
  EXPECT_FALSE(parse_bootstrap({"--lmon-rank=0", "--lmon-size=2",
                                "--lmon-topo=kary:2", "--lmon-port=1",
                                "--lmon-hosts=a"})
                   .has_value());
  // bad topology spelling
  EXPECT_FALSE(parse_bootstrap({"--lmon-rank=0", "--lmon-size=1",
                                "--lmon-topo=moebius", "--lmon-port=1",
                                "--lmon-hosts=a"})
                   .has_value());
  // missing everything (a daemon started outside LaunchMON)
  EXPECT_FALSE(parse_bootstrap({"--verbose"}).has_value());
}

TEST(Bootstrap, DuplicateHostResolvesToItsFirstRank) {
  // Two daemons on one host: the rank-from-host fallback answers the first
  // rank, as a scan from rank 0 would.
  const HostTable hosts(hosts_arg("c,a,b,a,c,a").slice()->sub(13, 11));
  ASSERT_EQ(hosts.size(), 6u);
  EXPECT_EQ(hosts.rank_of("a"), 1u);
  EXPECT_EQ(hosts.rank_of("b"), 2u);
  EXPECT_EQ(hosts.rank_of("c"), 0u);
  EXPECT_FALSE(hosts.rank_of("").has_value());
  EXPECT_FALSE(hosts.rank_of("aa").has_value());
  EXPECT_FALSE(hosts.rank_of("d").has_value());
  EXPECT_FALSE(HostTable().rank_of("a").has_value());
}

TEST(Bootstrap, EveryArgvOfOneHostEntryViewsItsBytes) {
  // Argvs holding one hosts_arg entry parse to tables that view that
  // entry's bytes in place; a hand-written argv gets its own copy.
  BootstrapSpec spec;
  spec.size = 4;
  spec.port = 9100;
  spec.hosts = {"n0", "n1", "n2", "n3"};
  const Arg hosts = hosts_arg(join_csv(spec.hosts));
  const auto* csv = reinterpret_cast<const char*>(hosts.slice()->data()) + 13;
  for (std::uint32_t r = 0; r < 4; ++r) {
    const auto p = parse_bootstrap(bootstrap_args(spec, r, hosts));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->hosts.at(0).data(), csv) << r;
    EXPECT_EQ(p->hosts.at(r), spec.hosts[r]);
  }
  const auto own = parse_bootstrap(
      {"--lmon-rank=0", "--lmon-size=4", "--lmon-topo=kary:2",
       "--lmon-port=1", "--lmon-hosts=n0,n1,n2,n3"});
  ASSERT_TRUE(own.has_value());
  EXPECT_NE(own->hosts.at(0).data(), csv);
  EXPECT_EQ(own->hosts.rank_of("n3"), 3u);
}


// --- self-heal reparent math (comm/heal.hpp) ---------------------------------

TEST(HealMath, AncestorChainClimbsToRoot) {
  const Topology topo({TopologyKind::KAry, 2}, 15);
  // rank 11: parent 5, grandparent 2, root.
  EXPECT_EQ(ancestor_chain(topo, 11),
            (std::vector<std::uint32_t>{5, 2, 0}));
  EXPECT_TRUE(ancestor_chain(topo, 0).empty());
  EXPECT_TRUE(ancestor_chain(topo, 99).empty());
}

TEST(HealMath, NearestLiveAncestorSkipsDeadChain) {
  const Topology topo({TopologyKind::KAry, 2}, 15);
  EXPECT_EQ(nearest_live_ancestor(topo, 11, {5}), 2u);
  EXPECT_EQ(nearest_live_ancestor(topo, 11, {5, 2}), 0u);
  // Root dead: the whole chain is gone.
  EXPECT_FALSE(nearest_live_ancestor(topo, 11, {5, 2, 0}).has_value());
  // Root itself has no ancestor to find.
  EXPECT_FALSE(nearest_live_ancestor(topo, 0, {}).has_value());
}

TEST(HealMath, ReparentPlanSingleInteriorDeath) {
  const Topology topo({TopologyKind::KAry, 2}, 7);
  const auto plan = reparent_plan(topo, {1});
  // 1's children {3,4} both land on the root.
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], (Adoption{3, 0}));
  EXPECT_EQ(plan[1], (Adoption{4, 0}));
}

TEST(HealMath, ReparentPlanRootChildDeath) {
  // Degenerate: the dead rank is a direct child of the root; orphans can
  // climb exactly one level.
  const Topology topo({TopologyKind::Flat, 0}, 6);
  // Flat: every rank is a leaf; killing one orphans nobody.
  EXPECT_TRUE(reparent_plan(topo, {3}).empty());
}

TEST(HealMath, ReparentPlanLastLeafDeath) {
  // Degenerate: the last leaf has no children; plan is empty for all shapes.
  for (const TopologySpec spec :
       {TopologySpec{TopologyKind::KAry, 2}, TopologySpec{TopologyKind::Binomial, 0},
        TopologySpec{TopologyKind::Flat, 0}}) {
    const Topology topo(spec, 9);
    EXPECT_TRUE(reparent_plan(topo, {8}).empty()) << spec.to_string();
  }
}

TEST(HealMath, ReparentPlanWholeRackLoss) {
  // Correlated loss of a whole subtree {1,3,4,7,8,9,10}: nothing inside it
  // survives to be adopted, and ranks outside it are unaffected.
  const Topology topo({TopologyKind::KAry, 2}, 15);
  std::set<std::uint32_t> dead;
  for (const std::uint32_t r : topo.subtree_of(1)) dead.insert(r);
  EXPECT_TRUE(reparent_plan(topo, dead).empty());

  // Losing the rack *except* its deepest leaves re-homes exactly those
  // leaves onto the root (their whole private chain is dead).
  dead.erase(7);
  dead.erase(8);
  const auto plan = reparent_plan(topo, dead);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], (Adoption{7, 0}));
  EXPECT_EQ(plan[1], (Adoption{8, 0}));
}

TEST(HealMath, ReparentPlanOmitsUnrecoverableOrphans) {
  const Topology topo({TopologyKind::KAry, 2}, 7);
  // Root dead: children 1/2 have no live ancestor and are omitted; deeper
  // ranks still have live parents and are not orphans at all.
  EXPECT_TRUE(reparent_plan(topo, {0}).empty());
}

TEST(HealMath, ReparentPlanAdopterIsOnOrphansOldRootPath) {
  // The invariant the collective-replay rules rely on: an adoption never
  // moves a rank off its original root path.
  for (const TopologySpec spec :
       {TopologySpec{TopologyKind::KAry, 2}, TopologySpec{TopologyKind::KAry, 3},
        TopologySpec{TopologyKind::Binomial, 0}}) {
    const Topology topo(spec, 13);
    for (std::uint32_t dead = 1; dead < 13; ++dead) {
      for (const Adoption& a : reparent_plan(topo, {dead})) {
        const auto chain = ancestor_chain(topo, a.orphan);
        EXPECT_TRUE(std::find(chain.begin(), chain.end(), a.new_parent) !=
                    chain.end())
            << spec.to_string() << " dead=" << dead;
      }
    }
  }
}

}  // namespace
}  // namespace lmon::comm
