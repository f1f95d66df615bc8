// Unit + property tests for the RPDTAB and the MPIR APAI encoding.
#include <gtest/gtest.h>

#include "cluster/machine.hpp"
#include "core/rpdtab.hpp"
#include "rm/apai.hpp"
#include "rm/protocol.hpp"
#include "simkernel/rng.hpp"

namespace lmon::core {
namespace {

std::vector<rm::TaskDesc> sample_entries() {
  return {
      {"atlas1", "mpi_app", 1001, 0},
      {"atlas1", "mpi_app", 1002, 1},
      {"atlas2", "mpi_app", 1003, 2},
      {"atlas3", "mpi_app", 1004, 3},
      {"atlas2", "mpi_app", 1005, 4},
  };
}

TEST(Rpdtab, PackUnpackRoundTrip) {
  Rpdtab t(sample_entries());
  auto back = Rpdtab::unpack(t.pack());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(Rpdtab, HostsInFirstAppearanceOrder) {
  Rpdtab t(sample_entries());
  EXPECT_EQ(t.hosts(),
            (std::vector<std::string>{"atlas1", "atlas2", "atlas3"}));
}

TEST(Rpdtab, EntriesForHost) {
  Rpdtab t(sample_entries());
  auto on2 = t.entries_for_host("atlas2");
  ASSERT_EQ(on2.size(), 2u);
  EXPECT_EQ(on2[0].rank, 2);
  EXPECT_EQ(on2[1].rank, 4);
  EXPECT_TRUE(t.entries_for_host("atlas9").empty());
}

TEST(Rpdtab, EmptyTableRoundTrips) {
  Rpdtab t;
  auto back = Rpdtab::unpack(t.pack());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
  EXPECT_TRUE(back->hosts().empty());
}

TEST(Rpdtab, MalformedBlobRejected) {
  EXPECT_FALSE(Rpdtab::unpack(Bytes{1, 2, 3}).has_value());
  // Claims 5 entries but contains none.
  ByteWriter w;
  w.u32(5);
  EXPECT_FALSE(Rpdtab::unpack(std::move(w).take()).has_value());
}

// --- the packed form ------------------------------------------------------------

TEST(RpdtabPacked, TruncatedOrOvercountedBlobsRejected) {
  const Bytes good = Rpdtab(sample_entries()).pack();
  ASSERT_TRUE(Rpdtab::unpack(good).has_value());
  // Every strict prefix that still has a count cuts some entry short.
  for (std::size_t len = 0; len < good.size(); ++len) {
    const Bytes cut(good.begin(),
                    good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(Rpdtab::unpack(cut).has_value()) << "len " << len;
  }
  // A count larger than the entries present.
  Bytes over = good;
  over[0] = 6;
  EXPECT_FALSE(Rpdtab::unpack(over).has_value());
  // A string length running past the end of the blob.
  ByteWriter w;
  w.u32(1);
  w.u32(1000);
  w.raw(as_bytes("atlas1"));
  EXPECT_FALSE(Rpdtab::unpack(std::move(w).take()).has_value());
}

TEST(RpdtabPacked, PackOfUnpackIsByteIdentical) {
  const Bytes blob = rm::apai::encode_proctable(sample_entries());
  auto t = Rpdtab::unpack(blob);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pack(), blob);
  // Before and after the decode cache fills.
  (void)t->entries();
  EXPECT_EQ(t->pack(), blob);
  EXPECT_EQ(std::move(*t).pack(), blob);
}

TEST(RpdtabPacked, TrailingBytesDroppedLikeTheDecoder) {
  Bytes blob = rm::apai::encode_proctable(sample_entries());
  const Bytes canonical = blob;
  blob.push_back(0xAB);
  auto t = Rpdtab::unpack(blob);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pack(), canonical);
  EXPECT_EQ(t->entries(), *rm::apai::decode_proctable(blob));
}

TEST(RpdtabPacked, EntriesForHostSameFromPackedAndDecoded) {
  const Rpdtab from_vector(sample_entries());
  auto packed = Rpdtab::unpack(from_vector.pack());
  ASSERT_TRUE(packed.has_value());
  for (const std::string host : {"atlas1", "atlas2", "atlas3", "atlas9"}) {
    // `packed` has not decoded; `from_vector` holds its entries already.
    const auto a = packed->entries_for_host(host);
    const auto b = from_vector.entries_for_host(host);
    EXPECT_EQ(a, b) << host;
    std::vector<rm::TaskDesc> want;
    for (const auto& e : sample_entries()) {
      if (e.host == host) want.push_back(e);
    }
    EXPECT_EQ(a, want) << host;
  }
  EXPECT_EQ(packed->hosts(), from_vector.hosts());
}

TEST(RpdtabPacked, SizeAndEmptyBeforeAnyDecode) {
  auto t = Rpdtab::unpack(rm::apai::encode_proctable(sample_entries()));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size(), 5u);
  EXPECT_FALSE(t->empty());
  auto none = Rpdtab::unpack(rm::apai::encode_proctable({}));
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(none->size(), 0u);
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(*none, Rpdtab());
  // And the decode agrees with the count.
  EXPECT_EQ(t->entries().size(), t->size());
}

TEST(RpdtabPacked, EqualityAcrossConstructionPaths) {
  const Rpdtab from_vector(sample_entries());
  auto from_blob = Rpdtab::unpack(rm::apai::encode_proctable(sample_entries()));
  ASSERT_TRUE(from_blob.has_value());
  EXPECT_EQ(from_vector, *from_blob);
  EXPECT_EQ(*from_blob, from_vector);
  EXPECT_EQ(from_blob->entries(), from_vector.entries());
  auto other = sample_entries();
  other[3].pid += 1;
  EXPECT_FALSE(Rpdtab(other) == *from_blob);
}

// --- views of one buffer, validated once -------------------------------------

std::shared_ptr<const Bytes> shared_blob(Bytes b) {
  return std::make_shared<const Bytes>(std::move(b));
}

TEST(RpdtabView, UnpackViewsTheBufferInPlace) {
  const auto buf = shared_blob(rm::apai::encode_proctable(sample_entries()));
  const ByteSlice whole(buf);
  auto first = Rpdtab::unpack(whole);
  auto again = Rpdtab::unpack(whole);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(first->bytes().data(), buf->data());
  EXPECT_EQ(again->bytes().data(), buf->data());
  EXPECT_EQ(again->size(), 5u);
  EXPECT_EQ(again->entries(), sample_entries());
}

TEST(RpdtabView, ShorterViewOfAnAcceptedBufferIsStillRejected) {
  const auto buf = shared_blob(rm::apai::encode_proctable(sample_entries()));
  const ByteSlice whole(buf);
  for (std::size_t len = 0; len < buf->size(); ++len) {
    // The full view is the remembered one; a prefix of it cuts some entry.
    ASSERT_TRUE(Rpdtab::unpack(whole).has_value());
    EXPECT_FALSE(Rpdtab::unpack(whole.sub(0, len)).has_value())
        << "len " << len;
  }
  ASSERT_TRUE(Rpdtab::unpack(whole).has_value());
}

TEST(RpdtabView, DistinctBufferWithTruncatedLastEntryIsRejected) {
  const Bytes good = rm::apai::encode_proctable(sample_entries());
  const auto accepted = shared_blob(good);
  ASSERT_TRUE(Rpdtab::unpack(ByteSlice(accepted)).has_value());
  const auto truncated =
      shared_blob(Bytes(good.begin(), good.end() - 1));  // last rank cut
  EXPECT_FALSE(Rpdtab::unpack(ByteSlice(truncated)).has_value());
  EXPECT_TRUE(Rpdtab::unpack(ByteSlice(accepted)).has_value());
}

TEST(RpdtabView, BufferRemadeWithDifferentBytesIsRevalidated) {
  const Bytes good = rm::apai::encode_proctable(sample_entries());
  Bytes over = good;
  over[0] = 6;  // same length, one entry over-counted
  for (int round = 0; round < 4; ++round) {
    {
      const auto buf = shared_blob(good);
      ASSERT_TRUE(Rpdtab::unpack(ByteSlice(buf)).has_value());
    }  // table and buffer freed; the next one may reuse their storage
    const auto remade = shared_blob(over);
    EXPECT_FALSE(Rpdtab::unpack(ByteSlice(remade)).has_value())
        << "round " << round;
  }
}

TEST(Rpdtab, PackedSizeLinearInEntries) {
  std::vector<rm::TaskDesc> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back({"atlas" + std::to_string(i % 10), "mpi_app",
                       2000 + i, i});
  }
  const std::size_t n100 = Rpdtab(entries).pack().size();
  entries.resize(50);
  const std::size_t n50 = Rpdtab(entries).pack().size();
  // Linear growth: the Region B / Region C terms of the paper's model.
  EXPECT_NEAR(static_cast<double>(n100) / static_cast<double>(n50), 2.0, 0.1);
}

class RpdtabPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpdtabPropertyTest, RandomTablesRoundTrip) {
  sim::Rng rng(GetParam() * 131 + 17);
  std::vector<rm::TaskDesc> entries;
  const auto n = rng.next_below(200);
  for (std::uint64_t i = 0; i < n; ++i) {
    rm::TaskDesc d;
    d.host = "node" + std::to_string(rng.next_below(64));
    d.executable = rng.next_below(2) == 0 ? "mpi_app" : "other_app";
    d.pid = static_cast<cluster::Pid>(rng.next_below(1 << 20));
    d.rank = static_cast<std::int32_t>(i);
    entries.push_back(std::move(d));
  }
  Rpdtab t(entries);
  auto back = Rpdtab::unpack(t.pack());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
  // Host partitions cover all entries exactly once.
  std::size_t total = 0;
  for (const auto& h : back->hosts()) {
    total += back->entries_for_host(h).size();
  }
  EXPECT_EQ(total, back->size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpdtabPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(Apai, PublishExposesMpirSymbols) {
  sim::Simulator simulator;
  cluster::Machine machine(simulator, cluster::MachineConfig{1, 0, "t", {}});

  class Inert : public cluster::Program {
   public:
    [[nodiscard]] std::string_view name() const override { return "inert"; }
    void on_start(cluster::Process&) override {}
  };
  auto res = machine.front_end().spawn(std::make_unique<Inert>(), {});
  ASSERT_TRUE(res.is_ok());
  simulator.run();
  cluster::Process* p = machine.find_process(res.value);

  rm::apai::publish(*p, sample_entries());
  EXPECT_TRUE(p->symbols().has(rm::apai::kProctable));
  EXPECT_TRUE(p->symbols().has(rm::apai::kProctableSize));
  EXPECT_TRUE(p->symbols().has(rm::apai::kDebugState));

  auto entries =
      rm::apai::decode_proctable(*p->symbols().find(rm::apai::kProctable));
  ASSERT_TRUE(entries.has_value());
  EXPECT_EQ(*entries, sample_entries());

  ByteReader size_r(*p->symbols().find(rm::apai::kProctableSize));
  EXPECT_EQ(size_r.u32(), 5u);
}

}  // namespace
}  // namespace lmon::core
