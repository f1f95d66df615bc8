#include "core/rpdtab.hpp"

#include <algorithm>
#include <memory>
#include <string_view>
#include <unordered_set>

#include "rm/apai.hpp"

namespace lmon::core {

namespace {

/// One entry's fields, viewed in place in the packed bytes (the
/// rm::write_task_desc layout).
struct EntryView {
  std::string_view host;
  std::string_view executable;
  cluster::Pid pid = cluster::kInvalidPid;
  std::int32_t rank = -1;

  [[nodiscard]] rm::TaskDesc to_task() const {
    return {std::string(host), std::string(executable), pid, rank};
  }
};

std::optional<EntryView> read_entry(ByteReader& r) {
  auto host = r.str_view();
  auto exe = r.str_view();
  auto pid = r.i64();
  auto rank = r.i32();
  if (!host || !exe || !pid || !rank) return std::nullopt;
  return EntryView{*host, *exe, *pid, *rank};
}

/// Calls fn(EntryView) for every entry of an already validated blob.
template <typename Fn>
void for_each_entry(const ByteSlice& packed, Fn&& fn) {
  ByteReader r(packed.span());
  const std::uint32_t count = r.u32().value_or(0);
  for (std::uint32_t i = 0; i < count; ++i) fn(*read_entry(r));
}

ByteSlice own(Bytes packed) {
  return ByteSlice(std::make_shared<const Bytes>(std::move(packed)));
}

/// The last view unpack() accepted and what validating it found. The
/// buffer is held weakly: the memo keeps no buffer alive, and while it
/// holds the buffer's control block no new buffer can share its identity,
/// even at a reused address.
struct Accepted {
  std::weak_ptr<const Bytes> buffer;
  const std::uint8_t* start = nullptr;
  std::size_t length = 0;
  std::uint32_t count = 0;
  std::size_t used = 0;  ///< bytes through the last entry

  [[nodiscard]] bool matches(const ByteSlice& s) const {
    return s.buffer() != nullptr && !buffer.owner_before(s.buffer()) &&
           !s.buffer().owner_before(buffer) && start == s.data() &&
           length == s.size();
  }
};

}  // namespace

Rpdtab::Rpdtab() : packed_(own(rm::apai::encode_proctable({}))) {}

Rpdtab::Rpdtab(std::vector<rm::TaskDesc> entries)
    : packed_(own(rm::apai::encode_proctable(entries))),
      count_(static_cast<std::uint32_t>(entries.size())),
      entries_(std::move(entries)) {}

const std::vector<rm::TaskDesc>& Rpdtab::entries() const {
  // The bytes were validated by unpack() or produced by the encoder.
  if (!entries_) {
    std::vector<rm::TaskDesc> out;
    out.reserve(count_);
    for_each_entry(packed_,
                   [&](const EntryView& e) { out.push_back(e.to_task()); });
    entries_ = std::move(out);
  }
  return *entries_;
}

std::vector<std::string> Rpdtab::hosts() const {
  std::vector<std::string> out;
  std::unordered_set<std::string_view> seen;
  for_each_entry(packed_, [&](const EntryView& e) {
    if (seen.insert(e.host).second) out.emplace_back(e.host);
  });
  return out;
}

std::vector<rm::TaskDesc> Rpdtab::entries_for_host(
    const std::string& host) const {
  std::vector<rm::TaskDesc> out;
  for_each_entry(packed_, [&](const EntryView& e) {
    if (e.host == host) out.push_back(e.to_task());
  });
  return out;
}

std::optional<Rpdtab> Rpdtab::unpack(ByteSlice data) {
  thread_local Accepted last;  // successes only; see the header
  if (!last.matches(data)) {
    ByteReader r(data.span());
    const auto count = r.u32();
    if (!count) return std::nullopt;
    for (std::uint32_t i = 0; i < *count; ++i) {
      if (!read_entry(r)) return std::nullopt;
    }
    last = {data.buffer(), data.data(), data.size(), *count,
            data.size() - r.remaining()};
  }
  return Rpdtab(data.sub(0, last.used), last.count);
}

std::optional<Rpdtab> Rpdtab::unpack(Bytes data) {
  return unpack(own(std::move(data)));
}

bool operator==(const Rpdtab& a, const Rpdtab& b) {
  return std::ranges::equal(a.bytes(), b.bytes());
}

}  // namespace lmon::core
