// flight_check.hpp - post-mortem hook for fault-injection tests.
//
// Attach one of these right after constructing a TestCluster: it attaches
// an obs::Tracer to the machine (unless the test attached one already), and
// if the test has FAILED by the time the scope closes, prints the tail of
// that trace - the last spans and instants of every process - to stderr, so
// "the launch timed out" comes with the actual last steps each daemon took.
// Passing tests print nothing.
//
// Kept separate from tests/test_util.hpp because this depends on gtest
// (HasFailure) and test_util is also included by the benches.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "obs/trace.hpp"

namespace lmon::testing {

/// The last `per_pid` span begins, span ends and instants of every process
/// in `tracer`, grouped by pid in pid order, oldest first; at one instant a
/// span's begin comes first and its end last. Records not bound to a process
/// (marks, log lines) and the per-message `net.send` instants are left out.
inline std::string tail_dump(const obs::Tracer& tracer,
                             std::size_t per_pid = 128) {
  struct Step {
    sim::Time at;
    int order;  ///< 0 begin, 1 instant, 2 end: the tie-break at one `at`
    std::string text;
  };
  std::map<std::uint64_t, std::vector<Step>> steps;
  std::map<std::uint64_t, std::string> lanes;
  for (const auto& [key, name] : tracer.lane_names()) lanes[key.second] = name;
  auto label = [](const std::string& name, const std::string& detail) {
    return detail.empty() ? name : name + " " + detail;
  };
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.node < 0) continue;
    // A span's detail is its begin label until end_span replaces it.
    if (s.open()) {
      steps[s.pid].push_back({s.begin, 0, "begin " + label(s.name, s.detail)});
      continue;
    }
    steps[s.pid].push_back({s.begin, 0, "begin " + s.name});
    steps[s.pid].push_back({s.end, 2, "end " + label(s.name, s.detail)});
  }
  for (const obs::InstantRecord& i : tracer.instants()) {
    if (i.node < 0 || i.name == "net.send") continue;
    steps[i.pid].push_back({i.at, 1, label(i.name, i.detail)});
  }
  std::string out;
  for (auto& [pid, list] : steps) {
    std::stable_sort(list.begin(), list.end(),
                     [](const Step& a, const Step& b) {
                       return a.at != b.at ? a.at < b.at : a.order < b.order;
                     });
    const auto lane = lanes.find(pid);
    out += "=== " + (lane != lanes.end() ? lane->second
                                          : "pid " + std::to_string(pid));
    const std::size_t skip = list.size() > per_pid ? list.size() - per_pid : 0;
    if (skip > 0) out += " (" + std::to_string(skip) + " older steps dropped)";
    out += " ===\n";
    for (std::size_t k = skip; k < list.size(); ++k) {
      char stamp[32];
      std::snprintf(stamp, sizeof stamp, "[%12.6fs] ",
                    sim::to_seconds(list[k].at));
      out += stamp;
      out += list[k].text;
      out += '\n';
    }
  }
  return out;
}

class TraceTailOnFailure {
 public:
  explicit TraceTailOnFailure(cluster::Machine& machine)
      : machine_(machine), tracer_(machine.tracer()) {
    if (tracer_ != nullptr) return;
    owned_ = std::make_unique<obs::Tracer>(machine.sim());
    tracer_ = owned_.get();
    machine_.set_tracer(tracer_);
  }

  TraceTailOnFailure(const TraceTailOnFailure&) = delete;
  TraceTailOnFailure& operator=(const TraceTailOnFailure&) = delete;

  ~TraceTailOnFailure() {
    if (owned_ != nullptr && machine_.tracer() == owned_.get()) {
      machine_.set_tracer(nullptr);
    }
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "\n--- trace tail (last steps per process) ---\n%s",
                   tail_dump(*tracer_).c_str());
    }
  }

 private:
  cluster::Machine& machine_;
  obs::Tracer* tracer_;
  std::unique_ptr<obs::Tracer> owned_;
};

}  // namespace lmon::testing
