#include "common/bytes.hpp"

#include <cassert>

namespace lmon {

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
