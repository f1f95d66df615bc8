// log.hpp - simulation trace logging.
//
// Off by default so benches run quietly; enable with LMON_SIM_LOG=debug (or
// info/warn) to watch protocol traffic with simulated timestamps, which is
// the main debugging aid for distributed-protocol issues in this repo.
//
// Two attachment points beyond the level gate:
//   * the *sink* replaces the stderr formatter (tests capture and assert on
//     log output instead of scraping stderr); it only sees level-passing
//     lines.
//   * the *tap* observes every line regardless of level - obs::LogBridge
//     uses it to fold the text log into the structured trace stream so log
//     lines land on the same simulated-time axis as spans and metrics.
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "simkernel/task.hpp"
#include "simkernel/time.hpp"

namespace lmon::sim {

enum class LogLevel { Off = 0, Warn = 1, Info = 2, Debug = 3 };

/// Global log configuration (read once from the environment, overridable in
/// tests). The simulator is single-threaded so no synchronization is needed.
class Log {
 public:
  using Sink =
      InlineFunction<void(LogLevel, Time, std::string_view /*component*/,
                          std::string_view /*message*/)>;

  static LogLevel level();
  static void set_level(LogLevel lv);

  /// Replaces the stderr formatter; nullptr restores the default. The sink
  /// only receives lines that pass the level gate.
  static void set_sink(Sink sink);

  /// Observer that sees *every* line, independent of level. At most one tap
  /// at a time; nullptr detaches. Owned by obs::LogBridge in practice.
  static void set_tap(Sink tap);
  static bool has_tap();

  /// Routes "[ 1.234567s] <component> message" to the sink (stderr by
  /// default) when `lv` passes the level gate, and to the tap always.
  static void write(LogLevel lv, Time now, std::string_view component,
                    std::string_view message);

  /// True when a line at `lv` would reach the sink or the tap - i.e. when
  /// building the message string is worth the cost.
  static bool enabled(LogLevel lv) { return lv <= level() || has_tap(); }
};

/// Maps an LMON_SIM_LOG value to a level: debug/info/warn/off/none/0 (and
/// the empty string) are recognised; anything else is nullopt so callers can
/// warn instead of silently disabling logging.
std::optional<LogLevel> parse_log_level(std::string_view text);

/// Streaming helper, used as a temporary:
///   LogLine(LogLevel::Debug, now, "rm") << "launching " << n;
/// When neither the level gate nor the tap wants the line, it builds
/// nothing. `component` must outlive the line.
class LogLine {
 public:
  LogLine(LogLevel lv, Time now, std::string_view component)
      : lv_(lv), now_(now), component_(component) {
    if (Log::enabled(lv_)) oss_.emplace();
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() {
    if (oss_) Log::write(lv_, now_, component_, oss_->str());
  }
  template <typename T>
  LogLine& operator<<(const T& v) {
    if (oss_) *oss_ << v;
    return *this;
  }

 private:
  LogLevel lv_;
  Time now_;
  std::string_view component_;
  std::optional<std::ostringstream> oss_;
};

}  // namespace lmon::sim
