#include "core/rpdtab.hpp"

#include <algorithm>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

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

/// What validating a view found.
struct Accepted {
  std::uint32_t count = 0;
  std::size_t used = 0;  ///< bytes through the last entry
  std::shared_ptr<Rpdtab::HostIndex> index;
};

}  // namespace

/// Every entry's host and byte offset in the packed bytes, sorted by host
/// and, within a host, by offset (rank order); built on first use (empty
/// until then). The hosts view the packed bytes, which every table sharing
/// the index keeps alive.
struct Rpdtab::HostIndex {
  std::vector<std::pair<std::string_view, std::uint32_t>> entries;
};

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
  if (!index_) index_ = std::make_shared<HostIndex>();
  auto& index = index_->entries;
  if (index.empty()) {
    index.reserve(count_);
    ByteReader r(packed_.span());
    r.skip(4);
    for (std::uint32_t i = 0; i < count_; ++i) {
      const auto offset =
          static_cast<std::uint32_t>(packed_.size() - r.remaining());
      index.emplace_back(read_entry(r)->host, offset);
    }
    std::ranges::sort(index);
  }
  const auto [first, last] = std::ranges::equal_range(
      index, std::string_view(host), {}, [](const auto& e) { return e.first; });
  std::vector<rm::TaskDesc> out;
  out.reserve(static_cast<std::size_t>(last - first));
  for (auto it = first; it != last; ++it) {
    ByteReader r(packed_.span().subspan(it->second));
    out.push_back(read_entry(r)->to_task());
  }
  return out;
}

std::optional<Rpdtab> Rpdtab::unpack(ByteSlice data) {
  thread_local LastView<Accepted> last;
  const auto accepted = last.get(
      data, [](const ByteSlice& view) -> std::optional<Accepted> {
        ByteReader r(view.span());
        const auto count = r.u32();
        if (!count) return std::nullopt;
        for (std::uint32_t i = 0; i < *count; ++i) {
          if (!read_entry(r)) return std::nullopt;
        }
        return Accepted{*count, view.size() - r.remaining(),
                        std::make_shared<HostIndex>()};
      });
  if (!accepted) return std::nullopt;
  return Rpdtab(data.sub(0, accepted->used), accepted->count,
                accepted->index);
}

std::optional<Rpdtab> Rpdtab::unpack(Bytes data) {
  return unpack(own(std::move(data)));
}

bool operator==(const Rpdtab& a, const Rpdtab& b) {
  return std::ranges::equal(a.bytes(), b.bytes());
}

}  // namespace lmon::core
