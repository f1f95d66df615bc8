// Unit + property tests for the wire serialization layer.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

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

// --- LastView: the decode-once memo -----------------------------------------

/// A decoder that counts its calls and accepts any view of at least two
/// bytes, decoding it to its first byte.
struct CountingDecode {
  int calls = 0;
  std::optional<int> operator()(const ByteSlice& view) {
    ++calls;
    if (view.size() < 2) return std::nullopt;
    return view.data()[0];
  }
};

std::shared_ptr<const Bytes> buffer_of(Bytes b) {
  return std::make_shared<const Bytes>(std::move(b));
}

TEST(LastView, RemembersASuccess) {
  LastView<int> memo;
  CountingDecode decode;
  const ByteSlice view(buffer_of({7, 8, 9}));
  EXPECT_EQ(memo.get(view, std::ref(decode)), 7);
  EXPECT_EQ(memo.get(ByteSlice(view), std::ref(decode)), 7);  // a copy
  EXPECT_EQ(decode.calls, 1);
  // Equal bytes in another buffer are another view.
  EXPECT_EQ(memo.get(ByteSlice(buffer_of({7, 8, 9})), std::ref(decode)), 7);
  EXPECT_EQ(decode.calls, 2);
}

TEST(LastView, NeverRemembersAFailure) {
  LastView<int> memo;
  CountingDecode decode;
  const ByteSlice good(buffer_of({5, 6}));
  const ByteSlice bad(buffer_of({1}));
  ASSERT_EQ(memo.get(good, std::ref(decode)), 5);
  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(memo.get(bad, std::ref(decode)).has_value());
  }
  EXPECT_EQ(decode.calls, 4);  // the failure decodes every time
  // ... and leaves the last success in place.
  EXPECT_EQ(memo.get(good, std::ref(decode)), 5);
  EXPECT_EQ(decode.calls, 4);
  // An empty default slice matches nothing, not even after a success.
  EXPECT_FALSE(memo.get(ByteSlice(), std::ref(decode)).has_value());
  EXPECT_EQ(decode.calls, 5);
}

TEST(LastView, ANarrowerViewOfTheSameBufferMisses) {
  LastView<int> memo;
  CountingDecode decode;
  const ByteSlice whole(buffer_of({1, 2, 3, 4}));
  ASSERT_EQ(memo.get(whole, std::ref(decode)), 1);
  // Shorter, and starting later: each its own view.
  EXPECT_EQ(memo.get(whole.sub(0, 3), std::ref(decode)), 1);
  EXPECT_EQ(memo.get(whole.sub(1, 3), std::ref(decode)), 2);
  EXPECT_EQ(decode.calls, 3);
  // Only the last view is remembered.
  EXPECT_EQ(memo.get(whole, std::ref(decode)), 1);
  EXPECT_EQ(decode.calls, 4);
}

TEST(LastView, ANewBufferDoesNotHitAfterTheOldOneDiedEvenAtAReusedAddress) {
  // Two buffers with the same bytes at the same address, one after the
  // other: each is a shared_ptr aliasing one storage, owned by a control
  // block of its own.
  static const Bytes storage = {3, 4, 5};
  const auto at_storage = [] {
    return std::shared_ptr<const Bytes>(std::make_shared<int>(0), &storage);
  };
  LastView<int> memo;
  CountingDecode decode;
  auto old_buffer = at_storage();
  ASSERT_EQ(memo.get(ByteSlice(old_buffer), std::ref(decode)), 3);
  old_buffer.reset();
  const ByteSlice reused(at_storage());
  ASSERT_EQ(reused.data(), storage.data());
  EXPECT_EQ(memo.get(reused, std::ref(decode)), 3);
  EXPECT_EQ(decode.calls, 2);
}

TEST(LastView, KeepsNoBufferAlive) {
  LastView<int> memo;
  CountingDecode decode;
  auto buffer = buffer_of({9, 9});
  const std::weak_ptr<const Bytes> watch = buffer;
  ASSERT_EQ(memo.get(ByteSlice(buffer), std::ref(decode)), 9);
  EXPECT_EQ(buffer.use_count(), 1);
  buffer.reset();
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace lmon
