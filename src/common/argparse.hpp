// argparse.hpp - minimal "--key=value" argv helpers.
//
// The simulated processes receive argv-style string vectors (daemon
// bootstrap parameters travel as real argv, like SLURM passes them), so
// several programs need the same tiny lookup.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lmon {

/// Returns the value of "--key=value" for key "--key=", or nullopt. A bare
/// "--key=" counts as absent (callers treat empty as unset); repeatable
/// pass-through options keep empty values via arg_list below.
inline std::optional<std::string> arg_value(
    const std::vector<std::string>& args, std::string_view key_eq) {
  for (const auto& a : args) {
    if (a.size() > key_eq.size() &&
        std::string_view(a).substr(0, key_eq.size()) == key_eq) {
      return a.substr(key_eq.size());
    }
  }
  return std::nullopt;
}

inline std::optional<std::int64_t> arg_int(
    const std::vector<std::string>& args, std::string_view key_eq) {
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
inline std::vector<std::string> arg_list(const std::vector<std::string>& args,
                                         std::string_view key_eq) {
  std::vector<std::string> out;
  for (const auto& a : args) {
    if (a.size() >= key_eq.size() &&
        std::string_view(a).substr(0, key_eq.size()) == key_eq) {
      out.push_back(a.substr(key_eq.size()));
    }
  }
  return out;
}

/// True when the exact flag (e.g. "--verbose") is present.
inline bool arg_flag(const std::vector<std::string>& args,
                     std::string_view flag) {
  for (const auto& a : args) {
    if (a == flag) return true;
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
