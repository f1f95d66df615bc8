// Unit + property tests for the wire serialization layer.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "simkernel/rng.hpp"

namespace lmon {
namespace {

TEST(Bytes, PrimitiveRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  w.blob(as_bytes("world"));

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.boolean(), true);
  EXPECT_EQ(r.boolean(), false);
  EXPECT_EQ(r.str(), "hello");
  auto blob = r.blob();
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(blob->size(), 5u);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x04030201);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[1], 0x02);
  EXPECT_EQ(b[2], 0x03);
  EXPECT_EQ(b[3], 0x04);
}

TEST(Bytes, TruncatedReadsReturnNullopt) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.u16().has_value());
  EXPECT_FALSE(r.u16().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.str().has_value());
}

TEST(Bytes, StringWithBogusLengthRejected) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8('x');
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.str().has_value());
}

TEST(Bytes, EmptyStringAndBlob) {
  ByteWriter w;
  w.str("");
  w.blob({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  auto b = r.blob();
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(b->empty());
}

TEST(Bytes, PatchU32) {
  ByteWriter w;
  w.u32(0);
  w.str("payload");
  w.patch_u32(0, 77);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 77u);
  EXPECT_EQ(r.str(), "payload");
}

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xAB, 0xFF, 0x10};
  const std::string hex = to_hex(data);
  EXPECT_EQ(hex, "0001abff10");
  auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Bytes, HexRejectsMalformed) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // bad digit
  EXPECT_TRUE(from_hex("").has_value());       // empty is fine
}

// Property: random mixed-value sequences always round-trip.
class BytesPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BytesPropertyTest, RandomSequenceRoundTrips) {
  sim::Rng rng(GetParam());
  const int ops = 1 + static_cast<int>(rng.next_below(40));
  std::vector<int> kinds;
  std::vector<std::uint64_t> ints;
  std::vector<std::string> strs;

  ByteWriter w;
  for (int i = 0; i < ops; ++i) {
    const int kind = static_cast<int>(rng.next_below(4));
    kinds.push_back(kind);
    switch (kind) {
      case 0: {
        const std::uint64_t v = rng.next();
        ints.push_back(v);
        w.u64(v);
        break;
      }
      case 1: {
        const std::uint64_t v = rng.next_below(1 << 16);
        ints.push_back(v);
        w.u16(static_cast<std::uint16_t>(v));
        break;
      }
      case 2: {
        std::string s;
        const auto len = rng.next_below(64);
        for (std::uint64_t c = 0; c < len; ++c) {
          s.push_back(static_cast<char>('a' + rng.next_below(26)));
        }
        strs.push_back(s);
        w.str(s);
        break;
      }
      default: {
        const std::uint64_t v = rng.next_below(2);
        ints.push_back(v);
        w.boolean(v != 0);
        break;
      }
    }
  }

  ByteReader r(w.bytes());
  std::size_t int_idx = 0;
  std::size_t str_idx = 0;
  for (int kind : kinds) {
    switch (kind) {
      case 0:
        EXPECT_EQ(r.u64(), ints[int_idx++]);
        break;
      case 1:
        EXPECT_EQ(r.u16(), static_cast<std::uint16_t>(ints[int_idx++]));
        break;
      case 2:
        EXPECT_EQ(r.str(), strs[str_idx++]);
        break;
      default:
        EXPECT_EQ(r.boolean(), ints[int_idx++] != 0);
        break;
    }
  }
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(Bytes, BlobViewReadsInPlace) {
  ByteWriter w;
  w.blob(Bytes{7, 8, 9});
  w.u32(5);  // a length prefix promising more than is left
  const Bytes b = w.bytes();
  ByteReader r(b);
  auto view = r.blob_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->data(), b.data() + 4);
  EXPECT_EQ(view->size(), 3u);
  EXPECT_FALSE(r.blob_view().has_value());
}

TEST(Bytes, SliceJoinStaysAViewWhileSlicesContinueOneBuffer) {
  auto buf = std::make_shared<const Bytes>(Bytes{0, 1, 2, 3, 4, 5, 6, 7});
  const ByteSlice all(buf);
  EXPECT_EQ(all.whole(), buf.get());
  EXPECT_EQ(all.sub(2, 3).whole(), nullptr);
  SliceJoin join;
  join.append(all.sub(0, 3));
  join.append(ByteSlice());  // empty slices are skipped
  join.append(all.sub(3, 5));
  EXPECT_EQ(join.size(), 8u);
  EXPECT_EQ(join.join().whole(), buf.get());
}

TEST(Bytes, SliceJoinCopiesOnceWhenASliceBreaksTheRun) {
  auto a = std::make_shared<const Bytes>(Bytes{0, 1, 2, 3});
  auto b = std::make_shared<const Bytes>(Bytes{4, 5});
  SliceJoin join;
  join.append(ByteSlice(a).sub(0, 2));
  join.append(ByteSlice(b));  // another buffer
  join.append(ByteSlice(a).sub(2, 2));
  const ByteSlice joined = join.join();
  EXPECT_EQ(joined.to_bytes(), (Bytes{0, 1, 4, 5, 2, 3}));
  EXPECT_NE(joined.data(), a->data());
  EXPECT_NE(joined.whole(), nullptr);
  // A later join of the same content reuses the one copy.
  EXPECT_EQ(join.join().data(), joined.data());
}

// Property: hex always round-trips random blobs.
class HexPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HexPropertyTest, RandomBlobRoundTrips) {
  sim::Rng rng(GetParam() * 977 + 3);
  Bytes data;
  const auto len = rng.next_below(256);
  for (std::uint64_t i = 0; i < len; ++i) {
    data.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
  }
  auto back = from_hex(to_hex(data));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HexPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace lmon
