#include "core/rpdtab.hpp"

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
void for_each_entry(const Bytes& packed, Fn&& fn) {
  ByteReader r(packed);
  const std::uint32_t count = r.u32().value_or(0);
  for (std::uint32_t i = 0; i < count; ++i) fn(*read_entry(r));
}

}  // namespace

Rpdtab::Rpdtab() : packed_(rm::apai::encode_proctable({})) {}

Rpdtab::Rpdtab(std::vector<rm::TaskDesc> entries)
    : packed_(rm::apai::encode_proctable(entries)),
      count_(static_cast<std::uint32_t>(entries.size())),
      entries_(std::move(entries)) {}

const std::vector<rm::TaskDesc>& Rpdtab::entries() const {
  // The bytes were validated by unpack() or produced by the encoder.
  if (!entries_) entries_ = rm::apai::decode_proctable(packed_).value();
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

std::optional<Rpdtab> Rpdtab::unpack(Bytes data) {
  ByteReader r(data);
  const auto count = r.u32();
  if (!count) return std::nullopt;
  for (std::uint32_t i = 0; i < *count; ++i) {
    if (!read_entry(r)) return std::nullopt;
  }
  data.resize(data.size() - r.remaining());
  return Rpdtab(std::move(data), *count);
}

std::optional<Rpdtab> Rpdtab::from_proctable_blob(Bytes blob) {
  return unpack(std::move(blob));
}

}  // namespace lmon::core
