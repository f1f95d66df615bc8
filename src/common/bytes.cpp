#include "common/bytes.hpp"

#include <cassert>

namespace lmon {

ByteSlice::ByteSlice(std::shared_ptr<const Bytes> buf, std::size_t offset,
                     std::size_t length)
    : buf_(std::move(buf)), offset_(offset), length_(length) {
  assert(length_ == 0 || (buf_ && offset_ + length_ <= buf_->size()));
}

ByteSlice ByteSlice::sub(std::size_t offset, std::size_t length) const {
  assert(offset + length <= length_);
  return ByteSlice(buf_, offset_ + offset, length);
}

void SliceJoin::append(const ByteSlice& s) {
  if (s.empty()) return;
  size_ += s.size();
  if (parts_.empty()) {
    if (run_.empty()) {
      run_ = s;
      return;
    }
    if (run_.buf_ == s.buf_ && run_.offset_ + run_.length_ == s.offset_) {
      run_.length_ += s.length_;  // `s` continues the run in its buffer
      return;
    }
    parts_.push_back(run_);
  }
  parts_.push_back(s);
}

ByteSlice SliceJoin::join() {
  if (parts_.empty()) return run_;
  auto out = std::make_shared<Bytes>();
  out->reserve(size_);
  for (const ByteSlice& p : parts_) out->insert(out->end(), p.begin(), p.end());
  parts_.clear();
  run_ = ByteSlice(std::move(out));
  return run_;
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  assert(offset + 4 <= buf_.size());
  for (std::size_t i = 0; i < 4; ++i) {
    buf_[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::optional<std::string> ByteReader::str() {
  auto view = str_view();
  if (!view) return std::nullopt;
  return std::string(*view);
}

std::optional<Bytes> ByteReader::blob() {
  auto len = u32();
  if (!len || remaining() < *len) return std::nullopt;
  return raw(*len);
}

std::optional<Bytes> ByteReader::raw(std::size_t n) {
  if (remaining() < n) return std::nullopt;
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string to_hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t byte : b) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0x0F]);
  }
  return out;
}

std::optional<Bytes> from_hex(std::string_view s) {
  if (s.size() % 2 != 0) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  Bytes out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const int hi = nibble(s[i]);
    const int lo = nibble(s[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

}  // namespace lmon
