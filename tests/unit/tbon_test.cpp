// Unit tests for TBON topology, packets and filters.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "simkernel/rng.hpp"
#include "tbon/endpoint.hpp"
#include "tbon/filter.hpp"
#include "tbon/packet.hpp"
#include "tbon/topology.hpp"
#include "tools/jobsnap/jobsnap_tbon.hpp"
#include "tools/stat/stat_be.hpp"

namespace lmon::tbon {
namespace {

std::vector<std::string> hosts(int n, const std::string& prefix = "n") {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

TEST(Topology, OneDeepShape) {
  Topology t = Topology::one_deep("fe", 8300, hosts(5));
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.num_backends(), 5);
  EXPECT_EQ(t.num_comm_nodes(), 0);
  EXPECT_EQ(t.depth(), 1);
  EXPECT_EQ(t.children_of(0).size(), 5u);
  for (int rank = 0; rank < 5; ++rank) {
    const int idx = t.index_of_backend(rank);
    ASSERT_GE(idx, 0);
    EXPECT_EQ(t.nodes()[static_cast<std::size_t>(idx)].parent, 0);
  }
}

TEST(Topology, BalancedShape) {
  Topology t = Topology::balanced("fe", 8300, hosts(3, "c"), hosts(12, "b"),
                                  2, 8301);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.num_backends(), 12);
  EXPECT_EQ(t.num_comm_nodes(), 3);
  EXPECT_GE(t.depth(), 2);
  // Back ends are distributed over the deepest comm layer.
  for (const auto& n : t.nodes()) {
    if (n.is_backend) {
      EXPECT_FALSE(
          t.nodes()[static_cast<std::size_t>(n.parent)].is_backend);
    }
  }
}

TEST(Topology, BalancedWithoutCommNodesDegeneratesToOneDeep) {
  Topology t = Topology::balanced("fe", 8300, {}, hosts(4), 2, 8301);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.depth(), 1);
  EXPECT_EQ(t.num_comm_nodes(), 0);
}

/// BE ranks attached to each comm-layer attach point, in node-index order.
std::vector<std::vector<int>> be_ranges_by_parent(const Topology& t) {
  std::map<int, std::vector<int>> by_parent;
  for (const auto& n : t.nodes()) {
    if (n.is_backend) by_parent[n.parent].push_back(n.be_rank);
  }
  std::vector<std::vector<int>> out;
  for (auto& [parent, ranks] : by_parent) out.push_back(std::move(ranks));
  return out;
}

TEST(Topology, ShapedAttachesBackEndsInContiguousBlocks) {
  // Each leaf comm daemon owns one contiguous, near-equal slice of the BE
  // rank range (the old round-robin layout strided consecutive ranks
  // across every leaf daemon).
  Topology t = Topology::shaped("fe", 8300, hosts(3, "c"), hosts(14, "b"),
                                {comm::TopologyKind::KAry, 2}, 8301);
  ASSERT_TRUE(t.valid());
  const auto ranges = be_ranges_by_parent(t);
  ASSERT_EQ(ranges.size(), 2u);  // comm ranks 1 and 2 are the leaves
  int expected_next = 0;
  std::size_t largest = 0;
  std::size_t smallest = 14;
  for (const auto& ranks : ranges) {
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ(ranks[i], expected_next) << "non-contiguous block";
      expected_next += 1;
    }
    largest = std::max(largest, ranks.size());
    smallest = std::min(smallest, ranks.size());
  }
  EXPECT_EQ(expected_next, 14);
  EXPECT_LE(largest - smallest, 1u);  // near-equal split
}

TEST(Topology, ShapedCommSubtreesOwnContiguousRankIntervals) {
  // Every comm subtree must cover one contiguous BE rank interval - the
  // property that keeps scatter partitions and rank-range filters
  // subtree-local. Checked across all three tree families.
  const std::vector<comm::TopologySpec> specs = {
      {comm::TopologyKind::KAry, 2},
      {comm::TopologyKind::KAry, 3},
      {comm::TopologyKind::Binomial, 0},
      {comm::TopologyKind::Flat, 0}};
  for (const auto& spec : specs) {
    Topology t = Topology::shaped("fe", 8300, hosts(7, "c"), hosts(29, "b"),
                                  spec, 8301);
    ASSERT_TRUE(t.valid()) << spec.to_string();
    for (std::size_t i = 1; i < t.nodes().size(); ++i) {
      if (t.nodes()[i].is_backend) continue;
      // Collect the BE ranks below comm node i.
      std::vector<int> ranks;
      std::vector<int> frontier{static_cast<int>(i)};
      while (!frontier.empty()) {
        const int cur = frontier.back();
        frontier.pop_back();
        for (int c : t.children_of(cur)) {
          if (t.nodes()[static_cast<std::size_t>(c)].is_backend) {
            ranks.push_back(t.nodes()[static_cast<std::size_t>(c)].be_rank);
          } else {
            frontier.push_back(c);
          }
        }
      }
      std::sort(ranks.begin(), ranks.end());
      for (std::size_t k = 1; k < ranks.size(); ++k) {
        EXPECT_EQ(ranks[k], ranks[k - 1] + 1)
            << spec.to_string() << " comm node " << i
            << " owns a non-contiguous rank set";
      }
    }
  }
}

TEST(Topology, ShapedBlockPlacementHandlesFewerBackEndsThanLeaves) {
  Topology t = Topology::shaped("fe", 8300, hosts(6, "c"), hosts(2, "b"),
                                {comm::TopologyKind::Flat, 0}, 8301);
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(t.num_backends(), 2);
  // index_of_backend stays total even with idle leaf daemons.
  EXPECT_GE(t.index_of_backend(0), 0);
  EXPECT_GE(t.index_of_backend(1), 0);
}

TEST(Topology, ShapedHonorsAttachWeights) {
  // kary:2 over 3 comm daemons -> leaves are comm ranks 1 and 2; weights
  // 3:1 over 12 back ends give them 9 and 3.
  Topology t = Topology::shaped("fe", 8300, hosts(3, "c"), hosts(12, "b"),
                                {comm::TopologyKind::KAry, 2}, 8301,
                                {3.0, 1.0});
  ASSERT_TRUE(t.valid());
  const auto ranges = be_ranges_by_parent(t);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].size(), 9u);
  EXPECT_EQ(ranges[1].size(), 3u);
  // Blocks stay contiguous and in rank order.
  EXPECT_EQ(ranges[0].front(), 0);
  EXPECT_EQ(ranges[0].back(), 8);
  EXPECT_EQ(ranges[1].front(), 9);
  // A weight vector that doesn't match the attach-point count is ignored
  // (near-equal fallback), not misapplied.
  Topology fallback = Topology::shaped(
      "fe", 8300, hosts(3, "c"), hosts(12, "b"),
      {comm::TopologyKind::KAry, 2}, 8301, {1.0, 2.0, 3.0});
  const auto fb = be_ranges_by_parent(fallback);
  ASSERT_EQ(fb.size(), 2u);
  EXPECT_EQ(fb[0].size(), 6u);
  EXPECT_EQ(fb[1].size(), 6u);
}

TEST(Topology, ShapedColocatedPlacesDaemonsOnTheirSubtreesFirstHost) {
  const std::vector<comm::TopologySpec> specs = {
      {comm::TopologyKind::KAry, 2},
      {comm::TopologyKind::KAry, 3},
      {comm::TopologyKind::Binomial, 0},
      {comm::TopologyKind::Flat, 0}};
  for (const auto& spec : specs) {
    Topology t = Topology::shaped_colocated("fe", 8300, 5, hosts(17, "b"),
                                            spec, 8301);
    ASSERT_TRUE(t.valid()) << spec.to_string();
    EXPECT_EQ(t.num_backends(), 17);
    EXPECT_EQ(t.num_comm_nodes(), 5);
    // Every comm daemon sits on the host of the lowest-rank back end in
    // its subtree (node-local first hop, no dedicated middleware hosts).
    for (std::size_t i = 1; i < t.nodes().size(); ++i) {
      if (t.nodes()[i].is_backend) continue;
      std::vector<int> ranks;
      std::vector<int> frontier{static_cast<int>(i)};
      while (!frontier.empty()) {
        const int cur = frontier.back();
        frontier.pop_back();
        for (int c : t.children_of(cur)) {
          if (t.nodes()[static_cast<std::size_t>(c)].is_backend) {
            ranks.push_back(t.nodes()[static_cast<std::size_t>(c)].be_rank);
          } else {
            frontier.push_back(c);
          }
        }
      }
      ASSERT_FALSE(ranks.empty()) << spec.to_string() << " comm " << i;
      const int first = *std::min_element(ranks.begin(), ranks.end());
      const int be_index = t.index_of_backend(first);
      ASSERT_GE(be_index, 0);
      EXPECT_EQ(t.nodes()[i].host,
                t.nodes()[static_cast<std::size_t>(be_index)].host)
          << spec.to_string() << " comm " << i;
    }
    // Co-located listeners on a shared host must not collide on a port.
    std::set<std::pair<std::string, int>> listeners;
    for (const auto& n : t.nodes()) {
      if (n.port == 0) continue;
      EXPECT_TRUE(listeners.insert({n.host, n.port}).second)
          << spec.to_string() << " duplicate listener " << n.host << ":"
          << n.port;
    }
  }
}

TEST(Topology, ShapedColocatedHonorsWeightsAndDegenerateInputs) {
  // kary:2 over 3 comm daemons -> leaves are ranks 1 and 2; weights 3:1
  // over 8 back ends give them blocks of 6 and 2.
  Topology t = Topology::shaped_colocated("fe", 8300, 3, hosts(8, "b"),
                                          {comm::TopologyKind::KAry, 2},
                                          8301, {3.0, 1.0});
  ASSERT_TRUE(t.valid());
  const auto ranges = be_ranges_by_parent(t);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].size(), 6u);
  EXPECT_EQ(ranges[1].size(), 2u);
  // Zero comm daemons degenerates to the 1-deep attachment.
  Topology flat = Topology::shaped_colocated(
      "fe", 8300, 0, hosts(4, "b"), {comm::TopologyKind::KAry, 2}, 8301);
  ASSERT_TRUE(flat.valid());
  EXPECT_EQ(flat.num_comm_nodes(), 0);
  EXPECT_EQ(flat.depth(), 1);
}

/// Builds a topology with the *old* round-robin BE attachment by packing
/// the wire form directly (Topology::unpack is the only public way to
/// construct an arbitrary layout - deliberately, but it keeps this
/// regression honest: nothing downstream may assume contiguity). Back end
/// b carries be_ranks[b] when given, else b.
Topology round_robin_topology(int ncomm_leaves, int nbe,
                              const std::vector<int>& be_ranks = {}) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(1 + ncomm_leaves + nbe));
  w.str("fe");
  w.u16(8300);
  w.i32(-1);
  w.boolean(false);
  w.i32(-1);
  for (int c = 0; c < ncomm_leaves; ++c) {
    w.str("c" + std::to_string(c));
    w.u16(8301);
    w.i32(0);
    w.boolean(false);
    w.i32(-1);
  }
  for (int b = 0; b < nbe; ++b) {
    w.str("b" + std::to_string(b));
    w.u16(0);
    w.i32(1 + b % ncomm_leaves);  // the old striding
    w.boolean(true);
    w.i32(be_ranks.empty() ? b : be_ranks[static_cast<std::size_t>(b)]);
  }
  auto t = Topology::unpack(std::move(w).take());
  EXPECT_TRUE(t.has_value());
  return *t;
}

TEST(Topology, RoundRobinPlacementStillValidatesAndResolvesRanks) {
  Topology t = round_robin_topology(3, 10);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.num_backends(), 10);
  EXPECT_EQ(t.num_comm_nodes(), 3);
  std::set<int> indices;
  for (int r = 0; r < 10; ++r) {
    const int idx = t.index_of_backend(r);
    ASSERT_GE(idx, 0);
    EXPECT_TRUE(indices.insert(idx).second);
  }
  // And it is genuinely non-contiguous: comm leaf 1 holds ranks 0,3,6,9.
  const auto children = t.children_of(1);
  std::vector<int> ranks;
  for (int c : children) {
    ranks.push_back(t.nodes()[static_cast<std::size_t>(c)].be_rank);
  }
  EXPECT_EQ(ranks, (std::vector<int>{0, 3, 6, 9}));
}

TEST(Topology, RejectsDuplicateAndOutOfRangeBackEndRanks) {
  // The ranks may come in any order, but each of 0..n-1 exactly once.
  Topology permuted = round_robin_topology(2, 4, {3, 1, 0, 2});
  ASSERT_TRUE(permuted.valid());
  for (int r = 0; r < 4; ++r) {
    const int idx = permuted.index_of_backend(r);
    ASSERT_GE(idx, 0);
    EXPECT_EQ(permuted.nodes()[static_cast<std::size_t>(idx)].be_rank, r);
  }
  // Two leaves share rank 1 (and rank 3 has none): the second leaf's
  // daemon could never find its slot.
  EXPECT_FALSE(round_robin_topology(2, 4, {0, 1, 1, 2}).valid());
  // A rank past the last back end, and a negative one.
  EXPECT_FALSE(round_robin_topology(2, 4, {0, 1, 2, 4}).valid());
  EXPECT_FALSE(round_robin_topology(2, 4, {0, -1, 1, 2}).valid());
}

// The linear scans the topology's index replaced, kept as the reference.
std::vector<int> scan_children(const Topology& t, int index) {
  std::vector<int> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.nodes()[i].parent == index) out.push_back(static_cast<int>(i));
  }
  return out;
}

int scan_index_of_backend(const Topology& t, int be_rank) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.nodes()[i].is_backend && t.nodes()[i].be_rank == be_rank) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int scan_num_backends(const Topology& t) {
  int n = 0;
  for (const auto& node : t.nodes()) n += node.is_backend ? 1 : 0;
  return n;
}

int scan_depth(const Topology& t) {
  int max_depth = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    int d = 0;
    for (int cur = static_cast<int>(i);
         cur > 0 && t.nodes()[static_cast<std::size_t>(cur)].parent >= 0;
         cur = t.nodes()[static_cast<std::size_t>(cur)].parent) {
      d += 1;
    }
    max_depth = std::max(max_depth, d);
  }
  return max_depth;
}

bool scan_subtree_has_backend(const Topology& t, int index) {
  if (t.nodes()[static_cast<std::size_t>(index)].is_backend) return true;
  for (int c : scan_children(t, index)) {
    if (scan_subtree_has_backend(t, c)) return true;
  }
  return false;
}

TEST(Topology, IndexAnswersWhatTheLinearScansDid) {
  const std::vector<comm::TopologySpec> specs = {
      {comm::TopologyKind::KAry, 4},
      {comm::TopologyKind::Binomial, 0},
      {comm::TopologyKind::Flat, 0}};
  for (const int n : {1, 2, 17, 256, 1000}) {
    const int ncomm = 1 + n / 16;
    std::vector<std::pair<std::string, Topology>> cases;
    cases.emplace_back("one_deep", Topology::one_deep("fe", 8300, hosts(n)));
    cases.emplace_back("balanced",
                       Topology::balanced("fe", 8300, hosts(ncomm, "c"),
                                          hosts(n, "b"), 3, 8301));
    for (const auto& spec : specs) {
      cases.emplace_back("shaped " + spec.to_string(),
                         Topology::shaped("fe", 8300, hosts(ncomm, "c"),
                                          hosts(n, "b"), spec, 8301));
      cases.emplace_back(
          "shaped_colocated " + spec.to_string(),
          Topology::shaped_colocated("fe", 8300,
                                     static_cast<std::size_t>(ncomm),
                                     hosts(n, "b"), spec, 8301));
    }
    for (const auto& [name, t] : cases) {
      SCOPED_TRACE(name + " n=" + std::to_string(n));
      ASSERT_TRUE(t.valid());
      EXPECT_EQ(t.num_backends(), scan_num_backends(t));
      EXPECT_EQ(t.num_backends(), n);
      EXPECT_EQ(t.depth(), scan_depth(t));
      for (int i = 0; i < static_cast<int>(t.size()); ++i) {
        const auto children = t.children_of(i);
        EXPECT_EQ(std::vector<int>(children.begin(), children.end()),
                  scan_children(t, i))
            << "node " << i;
        EXPECT_EQ(t.subtree_has_backend(i), scan_subtree_has_backend(t, i))
            << "node " << i;
      }
      for (int r = -1; r <= n; ++r) {
        EXPECT_EQ(t.index_of_backend(r), scan_index_of_backend(t, r))
            << "rank " << r;
      }
    }
  }
}

TEST(Topology, UnpackOfOneViewSharesOneDecodedTopology) {
  const Topology built = Topology::balanced("fe", 8300, hosts(3, "c"),
                                            hosts(20, "b"), 2, 8301);
  const auto buffer = std::make_shared<const Bytes>(built.pack());
  const ByteSlice view(buffer);

  auto a = Topology::unpack(view);
  auto b = Topology::unpack(ByteSlice(view));  // a copy of the same view
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, built);
  EXPECT_TRUE(a->valid());
  EXPECT_EQ(a->nodes().data(), b->nodes().data());

  // Equal bytes in another buffer decode on their own.
  const ByteSlice twin(std::make_shared<const Bytes>(*buffer));
  auto c = Topology::unpack(twin);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, built);
  EXPECT_NE(c->nodes().data(), a->nodes().data());

  // So does another view of one buffer: the packed bytes and a spare byte,
  // viewed with and without it (bytes past the last node are ignored).
  Bytes padded = *buffer;
  padded.push_back(0);
  const ByteSlice with_spare(std::make_shared<const Bytes>(std::move(padded)));
  auto d = Topology::unpack(with_spare);
  auto e = Topology::unpack(with_spare.sub(0, buffer->size()));
  ASSERT_TRUE(d.has_value());
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*d, built);
  EXPECT_EQ(*e, built);
  EXPECT_NE(d->nodes().data(), e->nodes().data());

  // Only the last view is remembered: the first one now decodes afresh,
  // and is remembered again in its turn.
  auto again = Topology::unpack(view);
  ASSERT_TRUE(again.has_value());
  EXPECT_NE(again->nodes().data(), a->nodes().data());
  EXPECT_EQ(Topology::unpack(view)->nodes().data(), again->nodes().data());
}

TEST(Topology, UnpackNeverRemembersAMalformedView) {
  const Topology built = Topology::one_deep("fe", 8300, hosts(6));
  const auto buffer = std::make_shared<const Bytes>(built.pack());
  const ByteSlice view(buffer);
  auto first = Topology::unpack(view);
  ASSERT_TRUE(first.has_value());

  // A truncated view of the same buffer, and garbage elsewhere, fail every
  // time and leave the remembered view in place.
  const ByteSlice truncated = view.sub(0, view.size() - 1);
  const ByteSlice garbage(std::make_shared<const Bytes>(Bytes{9, 9}));
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(Topology::unpack(truncated).has_value());
    EXPECT_FALSE(Topology::unpack(garbage).has_value());
    auto still = Topology::unpack(view);
    ASSERT_TRUE(still.has_value());
    EXPECT_EQ(still->nodes().data(), first->nodes().data());
  }
}

TEST(Topology, UnpackOfOwnedBytesDecodesOnItsOwn) {
  // The ad hoc path: every daemon decodes its argv copy. No memo there,
  // and it leaves the remembered view alone.
  const Topology built = Topology::one_deep("fe", 8300, hosts(4));
  const ByteSlice view(std::make_shared<const Bytes>(built.pack()));
  auto shared = Topology::unpack(view);
  ASSERT_TRUE(shared.has_value());
  const Bytes packed = built.pack();
  auto a = Topology::unpack(packed);
  auto b = Topology::unpack(packed);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, built);
  EXPECT_TRUE(a->valid());
  EXPECT_NE(a->nodes().data(), b->nodes().data());
  EXPECT_EQ(Topology::unpack(view)->nodes().data(), shared->nodes().data());
}

TEST(Topology, PackUnpackRoundTrip) {
  Topology t = Topology::balanced("fe", 8300, hosts(7, "c"), hosts(31, "b"),
                                  3, 8301);
  auto back = Topology::unpack(t.pack());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
  EXPECT_TRUE(back->valid());
}

TEST(Topology, ValidationCatchesCorruption) {
  Topology t = Topology::one_deep("fe", 8300, hosts(3));
  auto packed = t.pack();
  auto mutated = Topology::unpack(packed);
  ASSERT_TRUE(mutated.has_value());
  // An empty topology and self-parent loops are invalid.
  EXPECT_FALSE(Topology().valid());
  EXPECT_FALSE(Topology::unpack(Bytes{9, 9}).has_value());
}

TEST(Topology, SubtreeHasBackend) {
  Topology t = Topology::balanced("fe", 8300, hosts(2, "c"), hosts(4, "b"),
                                  2, 8301);
  EXPECT_TRUE(t.subtree_has_backend(0));
  for (int i = 1; i <= t.num_comm_nodes(); ++i) {
    // In this balanced layout every comm node leads to back ends.
    EXPECT_TRUE(t.subtree_has_backend(i));
  }
}

TEST(Packet, RoundTrip) {
  Packet p;
  p.kind = PacketKind::Up;
  p.stream = 3;
  p.tag = 99;
  p.node_index = 17;
  p.ranks = {0, 5, 9};
  p.data = Bytes{1, 2, 3};
  auto back = Packet::decode(p.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, PacketKind::Up);
  EXPECT_EQ(back->stream, 3u);
  EXPECT_EQ(back->tag, 99u);
  EXPECT_EQ(back->node_index, 17);
  EXPECT_EQ(back->ranks, p.ranks);
  EXPECT_EQ(back->data, p.data);
}

TEST(Filter, ConcatFlattensNestedFrames) {
  const Bytes a = wrap_leaf_payload(Bytes{1});
  const Bytes b = wrap_leaf_payload(Bytes{2, 2});
  const Bytes ab = concat_payloads({a, b});
  const Bytes c = wrap_leaf_payload(Bytes{3, 3, 3});
  const Bytes all = concat_payloads({ab, c});
  auto parts = split_concat(all);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], Bytes{1});
  EXPECT_EQ(parts[1], (Bytes{2, 2}));
  EXPECT_EQ(parts[2], (Bytes{3, 3, 3}));
}

TEST(Filter, SumU64Elementwise) {
  ByteWriter a;
  a.u64(1);
  a.u64(10);
  ByteWriter b;
  b.u64(2);
  b.u64(20);
  const Bytes out = tbon::apply(
      kFilterSumU64, {a.bytes(), b.bytes()});
  ByteReader r(out);
  EXPECT_EQ(r.u64(), 3u);
  EXPECT_EQ(r.u64(), 30u);
}

TEST(Filter, MaxU64Elementwise) {
  ByteWriter a;
  a.u64(7);
  ByteWriter b;
  b.u64(3);
  const Bytes out = tbon::apply(
      kFilterMaxU64, {a.bytes(), b.bytes()});
  ByteReader r(out);
  EXPECT_EQ(r.u64(), 7u);
}

TEST(Filter, UnknownIdFallsBackToConcat) {
  const Bytes a = wrap_leaf_payload(Bytes{5});
  const Bytes out = tbon::apply(424242, {a});
  EXPECT_EQ(split_concat(out).size(), 1u);
}

/// Re-reduces the running aggregate with each next input: first part
/// reduced alone, every later part reduced together with the aggregate.
/// For every filter the tree uses this must be byte-identical to the
/// all-at-once apply (associativity of the encoded form), or a hop that
/// relays partial aggregates would diverge from one that does not.
Bytes left_fold(std::uint32_t id, const std::vector<Bytes>& inputs) {
  Bytes acc = tbon::apply(id, {inputs.front()});
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    acc = tbon::apply(id, {acc, inputs[i]});
  }
  return acc;
}

TEST(Filter, BuiltinFoldsMatchAllAtOnceApplyByteForByte) {
  const std::vector<Bytes> frames = {
      wrap_leaf_payload(Bytes{1}), wrap_leaf_payload(Bytes{2, 2}),
      wrap_leaf_payload(Bytes{3, 3, 3}), wrap_leaf_payload(Bytes{4})};
  EXPECT_EQ(left_fold(kFilterConcat, frames),
            tbon::apply(kFilterConcat, frames));

  std::vector<Bytes> vecs;
  for (std::uint64_t seed : {3u, 7u, 11u}) {
    ByteWriter w;
    w.u64(seed);
    w.u64(seed * 1000);
    vecs.push_back(w.bytes());
  }
  EXPECT_EQ(left_fold(kFilterSumU64, vecs),
            tbon::apply(kFilterSumU64, vecs));
  EXPECT_EQ(left_fold(kFilterMaxU64, vecs),
            tbon::apply(kFilterMaxU64, vecs));
}

TEST(Filter, StatMergeFoldsChunkPartialsToTheWholePayloadTree) {
  tools::stat::register_stat_filter();
  // Three partial trees the way a streaming stat_be flushes them: disjoint
  // rank slices of one logical sample, overlapping call paths.
  tools::stat::PrefixTree whole;
  std::vector<Bytes> parts;
  const std::vector<std::vector<std::string>> paths = {
      {"_start", "main", "solve"},
      {"_start", "main", "io"},
      {"_start", "main", "solve", "MPI_Waitall"}};
  int rank = 0;
  for (const auto& path : paths) {
    tools::stat::PrefixTree part;
    for (int i = 0; i < 3; ++i, ++rank) {
      part.add_trace(path, rank);
      whole.add_trace(path, rank);
    }
    parts.push_back(wrap_leaf_payload(part.pack()));
  }
  const Bytes expected = concat_payloads({wrap_leaf_payload(whole.pack())});
  EXPECT_EQ(tbon::apply(tools::stat::kFilterStatMerge,
                                             parts),
            expected);
  EXPECT_EQ(left_fold(tools::stat::kFilterStatMerge, parts), expected);
}

TEST(Filter, SnapshotMergeFoldsChunkPartialsToTheSortedBatch) {
  tools::jobsnap::register_jobsnap_filter();
  auto snap = [](std::int32_t rank) {
    tools::jobsnap::TaskSnapshot s;
    s.rank = rank;
    s.host = "n" + std::to_string(rank % 4);
    s.pid = 1000 + rank;
    s.executable = "mpi_app";
    return s;
  };
  // Batches arrive rank-unordered across parts (daemon order, not rank
  // order); the fold must still converge on one globally sorted batch.
  std::vector<tools::jobsnap::TaskSnapshot> all;
  std::vector<Bytes> parts;
  for (const auto& ranks :
       std::vector<std::vector<std::int32_t>>{{8, 2}, {5}, {0, 11, 3}}) {
    std::vector<tools::jobsnap::TaskSnapshot> batch;
    for (std::int32_t r : ranks) {
      batch.push_back(snap(r));
      all.push_back(snap(r));
    }
    parts.push_back(
        wrap_leaf_payload(tools::jobsnap::encode_snapshots(batch)));
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.rank < b.rank; });
  const Bytes expected = concat_payloads(
      {wrap_leaf_payload(tools::jobsnap::encode_snapshots(all))});
  EXPECT_EQ(tbon::apply(
                tools::jobsnap::kFilterSnapshotMerge, parts),
            expected);
  EXPECT_EQ(left_fold(tools::jobsnap::kFilterSnapshotMerge, parts), expected);
}

/// Emits one fixed byte whatever it absorbed.
class FixedReduction final : public Reduction {
 public:
  explicit FixedReduction(std::uint8_t v) : v_(v) {}
  void add(const Bytes&) override {}
  [[nodiscard]] std::size_t packed_size() const override { return 1; }
  Bytes take() override { return Bytes{v_}; }

 private:
  std::uint8_t v_;
};

TEST(Filter, RegistrationAndOverride) {
  FilterRegistry::instance().register_filter(
      9000, [] { return std::make_unique<FixedReduction>(42); });
  EXPECT_EQ(tbon::apply(9000, {}), Bytes{42});
  FilterRegistry::instance().register_filter(
      9000, [] { return std::make_unique<FixedReduction>(43); });
  EXPECT_EQ(tbon::apply(9000, {}), Bytes{43});
}

// --- the Reduction contract, property-tested per filter --------------------

/// Seeded random inputs for one filter, already framed the way a back end
/// sends them (framed filters get concat frames, sum/max raw words).
std::vector<Bytes> random_inputs(std::uint32_t id, sim::Rng& rng) {
  std::vector<Bytes> inputs;
  const std::size_t n = 1 + rng.next_below(12);
  auto random_bytes = [&rng](std::size_t max_len) {
    Bytes b(rng.next_below(max_len + 1));
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next());
    return b;
  };
  // Unique jobsnap ranks in shuffled (daemon) order.
  std::vector<std::int32_t> ranks(64);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    ranks[i] = static_cast<std::int32_t>(i);
  }
  for (std::size_t i = ranks.size(); i > 1; --i) {
    std::swap(ranks[i - 1], ranks[rng.next_below(i)]);
  }
  std::size_t next_rank = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_below(10) == 0) {
      // Malformed or empty input: contributes nothing, must not corrupt.
      inputs.push_back(random_bytes(6));
      continue;
    }
    switch (id) {
      case kFilterSumU64:
      case kFilterMaxU64: {
        ByteWriter w;
        const std::size_t words = rng.next_below(6);
        for (std::size_t k = 0; k < words; ++k) w.u64(rng.next());
        Bytes b = std::move(w).take();
        const Bytes tail = random_bytes(7);  // a partial word is ignored
        b.insert(b.end(), tail.begin(), tail.end());
        inputs.push_back(std::move(b));
        break;
      }
      case tools::stat::kFilterStatMerge: {
        static const std::vector<std::string> frames = {
            "main", "solve", "exchange", "MPI_Waitall", "io", "bc"};
        std::vector<Bytes> trees;
        for (std::size_t t = 1 + rng.next_below(2); t > 0; --t) {
          tools::stat::PrefixTree tree;
          for (std::size_t k = 1 + rng.next_below(5); k > 0; --k) {
            std::vector<std::string> stack{"_start"};
            for (std::size_t d = rng.next_below(4); d > 0; --d) {
              stack.push_back(frames[rng.next_below(frames.size())]);
            }
            tree.add_trace(stack,
                           static_cast<std::int32_t>(rng.next_below(200)));
          }
          trees.push_back(wrap_leaf_payload(tree.pack()));
        }
        inputs.push_back(concat_payloads(trees));
        break;
      }
      case tools::jobsnap::kFilterSnapshotMerge: {
        std::vector<tools::jobsnap::TaskSnapshot> batch;
        for (std::size_t k = rng.next_below(4);
             k > 0 && next_rank < ranks.size(); --k) {
          tools::jobsnap::TaskSnapshot s;
          s.rank = ranks[next_rank++];
          s.host = "n" + std::to_string(rng.next_below(1000));
          s.pid = static_cast<cluster::Pid>(rng.next_below(1 << 20));
          s.executable = std::string(rng.next_below(12), 'x');
          s.state = 'R';
          s.utime_ms = rng.next();
          batch.push_back(std::move(s));
        }
        inputs.push_back(
            wrap_leaf_payload(tools::jobsnap::encode_snapshots(batch)));
        break;
      }
      default: {  // concat: leaves and already-nested frames
        std::vector<Bytes> leaves;
        for (std::size_t k = 1 + rng.next_below(3); k > 0; --k) {
          leaves.push_back(wrap_leaf_payload(random_bytes(20)));
        }
        inputs.push_back(concat_payloads(leaves));
        break;
      }
    }
  }
  return inputs;
}

class ReductionContract
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(ReductionContract, StreamedFlushesReproduceApplyOfAllInputs) {
  tools::stat::register_stat_filter();
  tools::jobsnap::register_jobsnap_filter();
  const auto [id, seed] = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + id);
  const std::vector<Bytes> inputs = random_inputs(id, rng);
  const Bytes expected = tbon::apply(id, inputs);

  // One interior hop, as TbonEndpoint drives it: every input is added as
  // it arrives, and at random flush points the hop take()s its reduction
  // and relays it to the parent, then restarts empty.
  const FilterRegistry& reg = FilterRegistry::instance();
  auto parent = reg.make(id);
  auto hop = reg.make(id);
  // `twin` sees the same adds and flushes; after every add it take()s to
  // check the hop's packed_size() (the flush threshold reads it, so an
  // off-by-one would shift simulated time) and re-adds its own output, a
  // take()-and-restart that must change nothing.
  auto twin = reg.make(id);
  auto check_size = [&] {
    const std::size_t predicted = hop->packed_size();
    Bytes now = twin->take();
    EXPECT_EQ(predicted, now.size());
    twin->add(now);
    EXPECT_EQ(twin->packed_size(), predicted);
  };
  check_size();
  for (const Bytes& in : inputs) {
    hop->add(in);
    twin->add(in);
    check_size();
    if (rng.next_below(3) == 0) {
      Bytes part = hop->take();
      EXPECT_EQ(twin->take(), part);
      EXPECT_EQ(hop->packed_size(), reg.make(id)->packed_size());
      parent->add(part);
    }
  }
  parent->add(hop->take());
  EXPECT_EQ(parent->packed_size(), expected.size());
  EXPECT_EQ(parent->take(), expected);
  // take() reset the parent: what it now emits is the empty reduction.
  EXPECT_EQ(parent->take(), tbon::apply(id, {}));
}

INSTANTIATE_TEST_SUITE_P(
    Filters, ReductionContract,
    ::testing::Combine(
        ::testing::Values(kFilterConcat, kFilterSumU64, kFilterMaxU64,
                          tools::stat::kFilterStatMerge,
                          tools::jobsnap::kFilterSnapshotMerge),
        ::testing::Range(0, 20)));

class TopologyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TopologyPropertyTest, RandomBalancedTopologiesAreValid) {
  sim::Rng rng(GetParam() * 51 + 2);
  const int ncomm = static_cast<int>(rng.next_below(10));
  const int nbe = 1 + static_cast<int>(rng.next_below(60));
  const int fanout = 1 + static_cast<int>(rng.next_below(8));
  Topology t = Topology::balanced("fe", 8300, hosts(ncomm, "c"),
                                  hosts(nbe, "b"), fanout, 8301);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.num_backends(), nbe);
  EXPECT_EQ(t.num_comm_nodes(), ncomm);
  auto back = Topology::unpack(t.pack());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
  // Every backend rank is findable and unique.
  std::set<int> indices;
  for (int r = 0; r < nbe; ++r) {
    const int idx = t.index_of_backend(r);
    ASSERT_GE(idx, 0);
    EXPECT_TRUE(indices.insert(idx).second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace lmon::tbon
