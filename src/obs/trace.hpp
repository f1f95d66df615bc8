// trace.hpp - span/event tracer keyed on simulated time.
//
// The observability plane for the whole stack: FE sessions, the engine,
// launch strategies, daemons, ICCL collectives, TBON packet flow and raw
// channel sends all record spans (durations with causal parent links) and
// instants (point events) here. Everything is keyed on sim::Time, and the
// simulator is deterministic, so an exported trace is a replayable artifact:
// the same seed produces the same trace bit-for-bit.
//
// Instrumentation is strictly observational. Recording never schedules
// simulator events and never charges cost, so attaching a Tracer does not
// perturb simulated timings - a traced run and an untraced run of the same
// seed finish at the same simulated instant after the same number of
// events (asserted by tests/integration/trace_session_test.cpp).
//
// Cross-process causality uses *anchors* instead of wire-format changes:
// a parent registers its span under a well-known key ("spawn:<session>:
// <host>"), and the child process looks the key up when its own span
// begins. The simulator's monotonic event order guarantees the anchor is
// set before the child can observe it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "simkernel/log.hpp"
#include "simkernel/simulator.hpp"
#include "simkernel/stats.hpp"

namespace lmon::obs {

using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// One duration with a causal parent. `node`/`pid` place the span on the
/// exporter's track (node) and lane (pid); -1/0 mean "not process-bound"
/// (e.g. the log bridge).
struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string name;
  std::string category;
  std::string detail;  ///< free-form begin annotation, e.g. "rank=3"
  /// The label end_span(id, detail) closed the span with, if any.
  std::optional<std::string> end_detail;
  int node = -1;
  std::uint64_t pid = 0;
  sim::Time begin = 0;
  sim::Time end = -1;  ///< -1 while open

  [[nodiscard]] bool open() const noexcept { return end < begin; }
  [[nodiscard]] sim::Time duration() const noexcept {
    return open() ? 0 : end - begin;
  }
};

/// A point event (packet arrival, retry, chunk forward, log line).
struct InstantRecord {
  std::string name;
  std::string category;
  std::string detail;
  int node = -1;
  std::uint64_t pid = 0;
  sim::Time at = 0;
  SpanId parent = kNoSpan;
};

class Tracer {
 public:
  explicit Tracer(sim::Simulator& sim) : sim_(sim) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- spans ---------------------------------------------------------------
  SpanId begin_span(std::string name, std::string category, int node,
                    std::uint64_t pid, SpanId parent = kNoSpan,
                    std::string detail = {});
  /// Closes the span at the current simulated time. Unknown/closed ids are
  /// ignored (a span may outlive the component that opened it).
  void end_span(SpanId id);
  /// end_span(id) with an end label ("ready", "failed: ..."), kept in
  /// SpanRecord::end_detail beside the begin detail.
  void end_span(SpanId id, std::string detail);

  void instant(std::string name, std::string category, int node,
               std::uint64_t pid, SpanId parent = kNoSpan,
               std::string detail = {});

  // --- critical-path marks and region costs ---------------------------------
  /// Machine::mark() forwards every critical-path label (the paper's
  /// e0..e11 vocabulary) here: recorded both as a Timeline mark (for
  /// critical-path extraction) and as an instant (for the exported trace).
  void mark(const std::string& label);
  /// Machine::charge() target (tracing/rpdtab_fetch/other region costs).
  void charge(const std::string& label, sim::Time amount);
  [[nodiscard]] const sim::Timeline& marks() const noexcept { return marks_; }
  [[nodiscard]] const sim::CostLedger& charges() const noexcept {
    return charges_;
  }

  // --- anchors -------------------------------------------------------------
  void set_anchor(const std::string& key, SpanId id) { anchors_[key] = id; }
  [[nodiscard]] SpanId anchor(const std::string& key) const {
    auto it = anchors_.find(key);
    return it == anchors_.end() ? kNoSpan : it->second;
  }

  // --- exporter metadata ---------------------------------------------------
  void name_track(int node, std::string name) {
    track_names_[node] = std::move(name);
  }
  void name_lane(int node, std::uint64_t pid, std::string name) {
    lane_names_[{node, pid}] = std::move(name);
  }
  [[nodiscard]] const std::map<int, std::string>& track_names() const {
    return track_names_;
  }
  [[nodiscard]] const std::map<std::pair<int, std::uint64_t>, std::string>&
  lane_names() const {
    return lane_names_;
  }

  // --- log bridge ----------------------------------------------------------
  /// Routes one sim::Log line into the event stream (see LogBridge): the
  /// text log and the spans share the timestamp/component vocabulary.
  void log_line(sim::LogLevel lv, sim::Time at, std::string_view component,
                std::string_view message);

  // --- inspection ----------------------------------------------------------
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<InstantRecord>& instants() const noexcept {
    return instants_;
  }
  /// nullptr for kNoSpan/unknown ids.
  [[nodiscard]] const SpanRecord* span(SpanId id) const;
  /// First span with this exact name (nullptr if absent).
  [[nodiscard]] const SpanRecord* find_span(std::string_view name) const;
  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }

 private:
  sim::Simulator& sim_;
  std::vector<SpanRecord> spans_;  ///< id == index + 1 (append-only)
  std::vector<InstantRecord> instants_;
  std::map<std::string, SpanId> anchors_;
  std::map<int, std::string> track_names_;
  std::map<std::pair<int, std::uint64_t>, std::string> lane_names_;
  sim::Timeline marks_;
  sim::CostLedger charges_;
};

/// RAII bridge: while alive, every sim::Log line (at any level, even with
/// LMON_SIM_LOG unset) is mirrored into `tracer` as a "log" instant. The
/// previous tap is restored on destruction.
class LogBridge {
 public:
  explicit LogBridge(Tracer& tracer);
  ~LogBridge();

  LogBridge(const LogBridge&) = delete;
  LogBridge& operator=(const LogBridge&) = delete;
};

}  // namespace lmon::obs
