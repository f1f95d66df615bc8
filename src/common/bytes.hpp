// bytes.hpp - little-endian wire serialization helpers.
//
// Every protocol in this repository (LMONP, the RM control protocol, the
// TBON packet format, tool payloads) serializes to real byte buffers so that
// message *sizes* are faithful: the simulated network charges transfer time
// proportional to the encoded size, which is what makes the paper's
// region-B/region-C linear terms (RPDTAB fetch, handshake payloads)
// reproducible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace lmon {

using Bytes = std::vector<std::uint8_t>;

/// An immutable view (shared buffer, offset, length) of bytes that already
/// exist: the zero-copy payload carrier. A slice keeps its buffer alive, and
/// a buffer is never written once it is shared, so any number of frames,
/// queues and deliveries may hold slices of one buffer without copying it.
class ByteSlice {
 public:
  ByteSlice() = default;
  /// The whole of `buf`.
  explicit ByteSlice(std::shared_ptr<const Bytes> buf)
      : buf_(std::move(buf)), length_(buf_ ? buf_->size() : 0) {}
  /// `length` bytes of `buf` from `offset`; the range must lie inside it.
  ByteSlice(std::shared_ptr<const Bytes> buf, std::size_t offset,
            std::size_t length);

  [[nodiscard]] std::size_t size() const noexcept { return length_; }
  [[nodiscard]] bool empty() const noexcept { return length_ == 0; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return buf_ ? buf_->data() + offset_ : nullptr;
  }
  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return {data(), length_};
  }
  /// `length` bytes from `offset` within this slice (no copy).
  [[nodiscard]] ByteSlice sub(std::size_t offset, std::size_t length) const;

  /// The backing buffer when this slice is all of it, else nullptr:
  /// delivery hands such a buffer out by reference instead of copying it.
  [[nodiscard]] const Bytes* whole() const noexcept {
    return buf_ && offset_ == 0 && length_ == buf_->size() ? buf_.get()
                                                           : nullptr;
  }

  /// The shared buffer this slice views (nullptr for an empty default
  /// slice): its identity, for callers that remember which buffers they
  /// have already seen.
  [[nodiscard]] const std::shared_ptr<const Bytes>& buffer() const noexcept {
    return buf_;
  }

  /// An owned copy of the viewed bytes.
  [[nodiscard]] Bytes to_bytes() const { return Bytes(begin(), end()); }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return data() + length_;
  }

 private:
  friend class SliceJoin;

  std::shared_ptr<const Bytes> buf_;
  std::size_t offset_ = 0;
  std::size_t length_ = 0;
};

/// Decode once per shared view: remembers the last view a decoder accepted
/// and what it decoded, so every daemon of a launch decoding the one buffer
/// they all view decodes it once. Keep one per decoder, `thread_local`.
/// - Key: the view's buffer, start and length. Any other view, of the same
///   buffer or of equal bytes elsewhere, decodes on its own.
/// - Lifetime: the buffer is held weakly, so no buffer is kept alive and no
///   new one can take the key, even at a reused address. The value is kept
///   until another view decodes; it must not own the key's buffer.
/// - Successes only: a failing view decodes again each time and leaves the
///   last success in place.
/// - Soundness: a shared ByteSlice buffer is never written, and no fault
///   mode alters payload bytes in flight; drop the memo if one ever does.
template <typename V>
class LastView {
 public:
  /// The value of `view`: the remembered one when `view` is the last view
  /// accepted, else `decode(view)` (a std::optional<V>), remembered when it
  /// holds a value. An empty default slice matches nothing.
  template <typename Decode>
  std::optional<V> get(const ByteSlice& view, Decode&& decode) {
    if (!matches(view)) {
      std::optional<V> value = decode(view);
      if (!value) return value;
      buffer_ = view.buffer();
      start_ = view.data();
      length_ = view.size();
      value_ = std::move(value);
    }
    return value_;
  }

 private:
  [[nodiscard]] bool matches(const ByteSlice& s) const noexcept {
    return s.buffer() != nullptr && !buffer_.owner_before(s.buffer()) &&
           !s.buffer().owner_before(buffer_) && start_ == s.data() &&
           length_ == s.size();
  }

  std::weak_ptr<const Bytes> buffer_;
  const std::uint8_t* start_ = nullptr;
  std::size_t length_ = 0;
  std::optional<V> value_;
};

/// Joins slices appended in order. While each slice continues the previous
/// one in the same buffer the join is just a wider view of that buffer;
/// once one does not, join() copies every byte once into a new buffer.
class SliceJoin {
 public:
  void append(const ByteSlice& s);
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Everything appended so far, as one slice.
  ByteSlice join();

 private:
  ByteSlice run_;                 ///< the join while it is one view
  std::vector<ByteSlice> parts_;  ///< every slice, once the view broke
  std::size_t size_ = 0;
};

/// Appends primitive values and length-prefixed containers to a byte buffer.
///
/// All integers are encoded little-endian with fixed width. Strings and blobs
/// are prefixed with a u32 length. The writer never fails; size is available
/// at any time for cost accounting.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    append_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// u32 length prefix + raw bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  /// u32 length prefix + raw bytes.
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b);
  }

  /// Raw bytes, no prefix (caller knows the framing).
  void raw(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const Bytes& bytes() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() && noexcept { return std::move(buf_); }

  /// Overwrites previously written bytes at `offset` (e.g. to patch a length
  /// field after the payload is known). `offset + 4` must be <= size().
  void patch_u32(std::size_t offset, std::uint32_t v);

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Bytes buf_;
};

/// Consumes primitive values from a byte buffer written by ByteWriter.
///
/// Every accessor returns std::optional; decoding a malformed buffer yields
/// nullopt instead of UB, so protocol handlers can reject bad frames
/// (exercised by the fuzz-ish property tests).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(const Bytes& data) : data_(data.data(), data.size()) {}

  std::optional<std::uint8_t> u8() { return take_le<std::uint8_t>(); }
  std::optional<std::uint16_t> u16() { return take_le<std::uint16_t>(); }
  std::optional<std::uint32_t> u32() { return take_le<std::uint32_t>(); }
  std::optional<std::uint64_t> u64() { return take_le<std::uint64_t>(); }
  std::optional<std::int32_t> i32() {
    auto v = take_le<std::uint32_t>();
    if (!v) return std::nullopt;
    return static_cast<std::int32_t>(*v);
  }
  std::optional<std::int64_t> i64() {
    auto v = take_le<std::uint64_t>();
    if (!v) return std::nullopt;
    return static_cast<std::int64_t>(*v);
  }
  std::optional<double> f64() {
    auto bits = take_le<std::uint64_t>();
    if (!bits) return std::nullopt;
    double v;
    std::memcpy(&v, &*bits, sizeof v);
    return v;
  }
  std::optional<bool> boolean() {
    auto v = u8();
    if (!v) return std::nullopt;
    return *v != 0;
  }

  std::optional<std::string> str();
  std::optional<Bytes> blob();

  /// Like str(), but views the bytes in place instead of copying them; the
  /// view lives as long as the buffer being read.
  std::optional<std::string_view> str_view() {
    auto len = u32();
    if (!len || remaining() < *len) return std::nullopt;
    std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_),
                       *len);
    pos_ += *len;
    return s;
  }

  /// Like blob(), but views the bytes in place instead of copying them.
  std::optional<std::span<const std::uint8_t>> blob_view() {
    auto len = u32();
    if (!len || remaining() < *len) return std::nullopt;
    std::span<const std::uint8_t> b = data_.subspan(pos_, *len);
    pos_ += *len;
    return b;
  }

  /// Raw bytes of exactly `n`, no prefix.
  std::optional<Bytes> raw(std::size_t n);
  /// Like raw(), but views the bytes in place instead of copying them.
  std::optional<std::span<const std::uint8_t>> raw_view(std::size_t n) {
    if (remaining() < n) return std::nullopt;
    std::span<const std::uint8_t> b = data_.subspan(pos_, n);
    pos_ += n;
    return b;
  }
  /// Advances past `n` bytes; false (and no move) when fewer remain.
  bool skip(std::size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  /// A u32 count, then that many elements of `read(*this)` (optionals). The
  /// count is untrusted: the reservation is capped at what the remaining
  /// bytes hold at `min_bytes` per element, so a corrupt count just fails.
  template <typename Read, typename T = typename std::invoke_result_t<
                               Read&, ByteReader&>::value_type>
  std::optional<std::vector<T>> list(std::size_t min_bytes, Read&& read) {
    auto count = u32();
    if (!count) return std::nullopt;
    std::vector<T> out;
    out.reserve(std::min<std::size_t>(*count, remaining() / min_bytes));
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto v = read(*this);
      if (!v) return std::nullopt;
      out.push_back(std::move(*v));
    }
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  std::optional<T> take_le() {
    if (remaining() < sizeof(T)) return std::nullopt;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Convenience: byte span view of a string.
inline std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Hex encoding, for smuggling binary blobs through argv (the ad hoc TBON
/// startup passes its topology this way, like MRNet's topology file).
std::string to_hex(const Bytes& b);
std::optional<Bytes> from_hex(std::string_view s);

}  // namespace lmon
