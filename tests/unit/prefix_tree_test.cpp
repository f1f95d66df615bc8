// Unit + property tests for STAT's call-graph prefix tree.
#include <gtest/gtest.h>

#include "simkernel/rng.hpp"
#include "tools/stat/prefix_tree.hpp"

namespace lmon::tools::stat {
namespace {

TEST(PrefixTree, SingleTraceSingleClass) {
  PrefixTree t;
  t.add_trace({"main", "solve", "MPI_Waitall"}, 0);
  auto classes = t.equivalence_classes();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].path,
            (std::vector<std::string>{"main", "solve", "MPI_Waitall"}));
  EXPECT_EQ(classes[0].ranks, (std::set<std::int32_t>{0}));
}

TEST(PrefixTree, SharedPrefixGroupsRanks) {
  PrefixTree t;
  t.add_trace({"main", "compute"}, 0);
  t.add_trace({"main", "compute"}, 1);
  t.add_trace({"main", "io"}, 2);
  auto classes = t.equivalence_classes();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(t.node_count(), 3u);  // main, compute, io
  EXPECT_EQ(t.all_ranks().size(), 3u);
}

TEST(PrefixTree, MergeCombinesRankSets) {
  PrefixTree a;
  a.add_trace({"main", "x"}, 0);
  PrefixTree b;
  b.add_trace({"main", "x"}, 1);
  b.add_trace({"main", "y"}, 2);
  a.merge(b);
  auto classes = a.equivalence_classes();
  ASSERT_EQ(classes.size(), 2u);
  for (const auto& c : classes) {
    if (c.path.back() == "x") {
      EXPECT_EQ(c.ranks, (std::set<std::int32_t>{0, 1}));
    } else {
      EXPECT_EQ(c.ranks, (std::set<std::int32_t>{2}));
    }
  }
}

TEST(PrefixTree, PackUnpackRoundTrip) {
  PrefixTree t;
  t.add_trace({"_start", "main", "a", "b"}, 3);
  t.add_trace({"_start", "main", "a", "c"}, 4);
  t.add_trace({"_start", "main", "d"}, 5);
  auto back = PrefixTree::unpack(t.pack());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node_count(), t.node_count());
  EXPECT_EQ(back->all_ranks(), t.all_ranks());
  EXPECT_EQ(back->equivalence_classes().size(),
            t.equivalence_classes().size());
}

TEST(PrefixTree, RenderMentionsFramesAndCounts) {
  PrefixTree t;
  t.add_trace({"main", "kernel"}, 0);
  t.add_trace({"main", "kernel"}, 1);
  const std::string r = t.render();
  EXPECT_NE(r.find("main"), std::string::npos);
  EXPECT_NE(r.find("kernel"), std::string::npos);
  EXPECT_NE(r.find("[2 tasks]"), std::string::npos);
}

TEST(PrefixTree, UnpackRejectsGarbage) {
  EXPECT_FALSE(PrefixTree::unpack(Bytes{1, 2, 3}).has_value());
}

TEST(PrefixTree, UnpackAcceptsUnsortedAndDuplicateRanks) {
  // pack() always writes ascending ranks; a hand-built blob that does not
  // must still decode to the same sets.
  ByteWriter w;
  w.str("<root>");
  w.u32(5);
  for (std::int32_t r : {7, 2, 9, 2, -1}) w.i32(r);
  w.u32(0);  // no terminal ranks at the root
  w.u32(1);
  w.str("main");
  w.u32(3);
  for (std::int32_t r : {9, 7, 9}) w.i32(r);
  w.u32(2);
  for (std::int32_t r : {9, 7}) w.i32(r);
  w.u32(0);
  auto t = PrefixTree::unpack(std::move(w).take());
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->all_ranks(), (std::set<std::int32_t>{-1, 2, 7, 9}));
  auto classes = t->equivalence_classes();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].ranks, (std::set<std::int32_t>{7, 9}));
  // Re-packing sorts and deduplicates: the canonical form round-trips.
  auto again = PrefixTree::unpack(t->pack());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->pack(), t->pack());
}

TEST(PrefixTree, MergePackedRejectsTruncatedInputWhole) {
  PrefixTree t;
  t.add_trace({"main", "a"}, 1);
  PrefixTree other;
  other.add_trace({"main", "a", "b"}, 2);
  other.add_trace({"main", "c"}, 0);
  const Bytes before = t.pack();
  const Bytes packed = other.pack();
  // Every cut of a valid blob is malformed: nothing of it may land.
  for (std::size_t len = 0; len < packed.size(); ++len) {
    EXPECT_FALSE(t.merge_packed({packed.data(), len})) << "len " << len;
    EXPECT_EQ(t.pack(), before) << "len " << len;
  }
  ASSERT_TRUE(t.merge_packed(packed));
  EXPECT_EQ(t.all_ranks(), (std::set<std::int32_t>{0, 1, 2}));
}

/// Generates a random trace set and checks merge properties.
class PrefixTreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<std::vector<std::string>> random_traces(sim::Rng& rng, int n) {
  static const std::vector<std::string> frames = {
      "main", "solve", "exchange", "MPI_Waitall", "io", "kernel", "bc"};
  std::vector<std::vector<std::string>> out;
  for (int i = 0; i < n; ++i) {
    std::vector<std::string> trace{"_start"};
    const auto depth = 1 + rng.next_below(5);
    for (std::uint64_t d = 0; d < depth; ++d) {
      trace.push_back(frames[rng.next_below(frames.size())]);
    }
    out.push_back(std::move(trace));
  }
  return out;
}

TEST_P(PrefixTreeProperty, MergeOrderIndependent) {
  sim::Rng rng(GetParam() * 73 + 5);
  auto traces = random_traces(rng, 30);

  // Insert all into one tree; also split across three trees merged in
  // different orders; all must agree.
  PrefixTree whole;
  PrefixTree parts[3];
  for (std::size_t i = 0; i < traces.size(); ++i) {
    whole.add_trace(traces[i], static_cast<std::int32_t>(i));
    parts[i % 3].add_trace(traces[i], static_cast<std::int32_t>(i));
  }
  PrefixTree m1;
  m1.merge(parts[0]);
  m1.merge(parts[1]);
  m1.merge(parts[2]);
  PrefixTree m2;
  m2.merge(parts[2]);
  m2.merge(parts[0]);
  m2.merge(parts[1]);

  EXPECT_EQ(m1.node_count(), whole.node_count());
  EXPECT_EQ(m2.node_count(), whole.node_count());
  EXPECT_EQ(m1.all_ranks(), whole.all_ranks());
  EXPECT_EQ(m1.equivalence_classes().size(),
            whole.equivalence_classes().size());
  EXPECT_EQ(m2.equivalence_classes().size(),
            whole.equivalence_classes().size());
}

TEST_P(PrefixTreeProperty, ClassesPartitionRanks) {
  sim::Rng rng(GetParam() * 191 + 9);
  auto traces = random_traces(rng, 50);
  PrefixTree t;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    t.add_trace(traces[i], static_cast<std::int32_t>(i));
  }
  // Note: identical traces share a leaf, different traces may still share
  // a leaf only if equal. Ranks across leaf classes with distinct paths
  // may overlap when one trace is a prefix of another - in that case the
  // inner node is not a leaf, so each rank lands in >= 1 class.
  std::set<std::int32_t> covered;
  for (const auto& c : t.equivalence_classes()) {
    covered.insert(c.ranks.begin(), c.ranks.end());
  }
  EXPECT_EQ(covered.size(), traces.size());
}

TEST_P(PrefixTreeProperty, ChunkBoundaryPartialsFoldToTheWholeTree) {
  // The streaming back end (stat_be) flushes a partial tree upward whenever
  // the packed size crosses the chunk threshold and the TBON left-folds the
  // parts into its round accumulator. Splitting the same trace stream at
  // arbitrary points and folding must reproduce the whole-payload tree
  // byte-for-byte (children are name-keyed and ranks are sets, so pack()
  // is canonical regardless of arrival order).
  sim::Rng rng(GetParam() * 257 + 13);
  auto traces = random_traces(rng, 40);

  PrefixTree whole;
  std::vector<Bytes> parts;
  PrefixTree pending;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    whole.add_trace(traces[i], static_cast<std::int32_t>(i));
    pending.add_trace(traces[i], static_cast<std::int32_t>(i));
    if (rng.next_below(4) == 0) {  // arbitrary flush boundary
      parts.push_back(pending.pack());
      pending = PrefixTree{};
    }
  }
  parts.push_back(pending.pack());

  PrefixTree fold;
  for (const Bytes& packed : parts) {
    auto t = PrefixTree::unpack(packed);
    ASSERT_TRUE(t.has_value());
    fold.merge(*t);
  }
  EXPECT_EQ(fold.pack(), whole.pack());
}

TEST_P(PrefixTreeProperty, MergePackedEqualsMergeOfUnpackedTree) {
  // merge_packed unions straight into the live tree; it must land exactly
  // where merge(*unpack(...)) does, and packed_size() must be pack()'s
  // size at every step (the STAT filter's flush test reads it).
  sim::Rng rng(GetParam() * 613 + 5);
  PrefixTree via_unpack;
  PrefixTree via_packed;
  for (int part = 0; part < 6; ++part) {
    PrefixTree p;
    const int ntraces = 1 + static_cast<int>(rng.next_below(8));
    for (const auto& trace : random_traces(rng, ntraces)) {
      p.add_trace(trace, static_cast<std::int32_t>(rng.next_below(64)));
    }
    const Bytes packed = p.pack();
    ASSERT_EQ(p.packed_size(), packed.size());
    auto t = PrefixTree::unpack(packed);
    ASSERT_TRUE(t.has_value());
    via_unpack.merge(*t);
    ASSERT_TRUE(via_packed.merge_packed(packed));
    EXPECT_EQ(via_packed.pack(), via_unpack.pack());
    EXPECT_EQ(via_packed.packed_size(), via_packed.pack().size());
  }
}

TEST_P(PrefixTreeProperty, PackUnpackIsLossless) {
  sim::Rng rng(GetParam() * 401 + 11);
  auto traces = random_traces(rng, 40);
  PrefixTree t;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    t.add_trace(traces[i], static_cast<std::int32_t>(i));
  }
  auto back = PrefixTree::unpack(t.pack());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pack(), t.pack());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTreeProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace lmon::tools::stat
