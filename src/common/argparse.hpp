// argparse.hpp - argv entries and minimal "--key=value" helpers.
//
// The simulated processes receive argv-style entry vectors (daemon
// bootstrap parameters travel as real argv, like SLURM passes them), so
// several programs need the same tiny lookup.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace lmon {

/// One argv entry. A short entry owns its text. An entry that every daemon
/// of a launch gets alike and that grows with the launch (its rank-ordered
/// host list) views one immutable shared buffer instead, so copying the
/// entry into a thousand argvs copies no text: see ByteSlice for why
/// sharing is sound.
class Arg {
 public:
  Arg() = default;
  Arg(std::string text) : own_(std::move(text)) {}  // NOLINT: implicit
  Arg(const char* text) : own_(text) {}             // NOLINT: implicit
  /// An entry whose text is the bytes of `shared`, viewed in place.
  explicit Arg(ByteSlice shared) : shared_(std::move(shared)) {}

  /// An entry holding `text` in one new buffer that its copies share.
  static Arg shared(std::string_view text) {
    const auto bytes = as_bytes(text);
    return Arg(ByteSlice(
        std::make_shared<const Bytes>(bytes.begin(), bytes.end())));
  }

  [[nodiscard]] std::string_view view() const noexcept {
    if (shared_.buffer() == nullptr) return own_;
    return {reinterpret_cast<const char*>(shared_.data()), shared_.size()};
  }
  operator std::string_view() const noexcept { return view(); }  // NOLINT
  [[nodiscard]] std::size_t size() const noexcept { return view().size(); }

  /// The shared bytes this entry views, or nullptr when it owns its text.
  [[nodiscard]] const ByteSlice* slice() const noexcept {
    return shared_.buffer() == nullptr ? nullptr : &shared_;
  }

  /// The text from `pos` on: a narrower view of the same buffer when this
  /// entry is shared, an owned copy otherwise.
  [[nodiscard]] Arg suffix(std::size_t pos) const {
    if (const auto* s = slice()) return Arg(s->sub(pos, s->size() - pos));
    return Arg(own_.substr(pos));
  }

  friend bool operator==(const Arg& a, std::string_view b) noexcept {
    return a.view() == b;
  }

 private:
  std::string own_;   ///< the text, unless shared_ has a buffer
  ByteSlice shared_;
};

using Argv = std::vector<Arg>;

/// `key_eq` followed by the text of `value`. The result is shared - one new
/// buffer - exactly when `value` is, so a long entry stays shareable.
inline Arg with_key(std::string_view key_eq, const Arg& value) {
  std::string text;
  text.reserve(key_eq.size() + value.size());
  text += key_eq;
  text += value.view();
  if (value.slice() != nullptr) return Arg::shared(text);
  return Arg(std::move(text));
}

// The lookups below read any vector of argv entries: a simulated process's
// Argv, or a host program's own argv as strings.

/// The first entry "--key=value" for key "--key=" whose value is not
/// empty, or nullptr.
template <typename Entry>
const Entry* arg_entry(const std::vector<Entry>& args,
                       std::string_view key_eq) {
  for (const auto& a : args) {
    const std::string_view v(a);
    if (v.size() > key_eq.size() && v.substr(0, key_eq.size()) == key_eq) {
      return &a;
    }
  }
  return nullptr;
}

/// Returns the value of "--key=value" for key "--key=", or nullopt. A bare
/// "--key=" counts as absent (callers treat empty as unset); repeatable
/// pass-through options keep empty values via arg_list below.
template <typename Entry>
std::optional<std::string> arg_value(const std::vector<Entry>& args,
                                     std::string_view key_eq) {
  const Entry* a = arg_entry(args, key_eq);
  if (a == nullptr) return std::nullopt;
  return std::string(std::string_view(*a).substr(key_eq.size()));
}

template <typename Entry>
std::optional<std::int64_t> arg_int(const std::vector<Entry>& args,
                                    std::string_view key_eq) {
  auto v = arg_value(args, key_eq);
  if (!v) return std::nullopt;
  try {
    return std::stoll(*v);
  } catch (...) {
    return std::nullopt;
  }
}

/// Collects every occurrence of a repeatable "--key=value" option, in
/// order (e.g. arg_list(args, "--daemon-arg=") for pass-through argv).
/// Empty values are kept: "--daemon-arg=" forwards "" and preserves the
/// daemon's argv positions.
template <typename Entry>
std::vector<std::string> arg_list(const std::vector<Entry>& args,
                                  std::string_view key_eq) {
  std::vector<std::string> out;
  for (const auto& a : args) {
    const std::string_view v(a);
    if (v.size() >= key_eq.size() && v.substr(0, key_eq.size()) == key_eq) {
      out.emplace_back(v.substr(key_eq.size()));
    }
  }
  return out;
}

/// True when the exact flag (e.g. "--verbose") is present.
template <typename Entry>
bool arg_flag(const std::vector<Entry>& args, std::string_view flag) {
  for (const auto& a : args) {
    if (std::string_view(a) == flag) return true;
  }
  return false;
}

/// Appends one entry to the comma-separated list `out`.
inline void append_csv(std::string& out, std::string_view part) {
  if (!out.empty()) out += ',';
  out += part;
}

/// Joins strings into a comma-separated list (inverse of split_csv).
inline std::string join_csv(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& s : parts) append_csv(out, s);
  return out;
}

/// Splits a comma-separated list ("host1,host2,host3").
inline std::vector<std::string> split_csv(std::string_view csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string_view::npos) {
      if (start < csv.size()) out.emplace_back(csv.substr(start));
      break;
    }
    if (comma > start) out.emplace_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace lmon
