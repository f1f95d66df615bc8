// bench_util.hpp - shared harness pieces for the figure/table benches.
//
// These benches drive the simulated cluster, so the numbers they print are
// simulated seconds (deterministic across runs and machines). They
// reproduce the *shape* of the paper's results: who wins, by what factor,
// and where the crossovers/failures fall.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/argparse.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/trace.hpp"
#include "tests/test_util.hpp"

namespace lmon::bench {

using testing::TestCluster;

inline void print_title(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// True when LMON_BENCH_SMOKE is set to a truthy value: the bench must
/// finish in seconds, not minutes. scripts/check.sh --bench-smoke (and the
/// bench-smoke ctest label) run every bench this way so tier-1 catches
/// bench bit-rot. An empty value or "0" means off, so exported-but-cleared
/// environments ("LMON_BENCH_SMOKE=0 ./bench") get the full sweep.
inline bool smoke_mode() {
  const char* v = std::getenv("LMON_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && std::string_view(v) != "0";
}

/// The sweep scale list for this run: the full list normally, the smoke
/// list (typically one or two tiny points) under LMON_BENCH_SMOKE.
inline std::vector<int> scales(std::vector<int> full, std::vector<int> smoke) {
  return smoke_mode() ? smoke : full;
}

// --- trace export (--trace-out= / LMON_TRACE_OUT) ---------------------------

/// Where this bench run writes its Chrome/Perfetto trace ("" = tracing
/// off). Sweeping benches re-trace every point into the same file, so the
/// exported trace is the *last* swept point's.
inline std::string& trace_out_path() {
  static std::string path;
  return path;
}

/// Resolves the trace destination from --trace-out=<path> (or the
/// LMON_TRACE_OUT environment variable when the flag is absent).
inline void set_trace_out(const std::vector<std::string>& args) {
  if (auto v = arg_value(args, "--trace-out="); v) {
    trace_out_path() = *v;
    return;
  }
  const char* env = std::getenv("LMON_TRACE_OUT");
  if (env != nullptr) trace_out_path() = env;
}

/// True for flags every bench accepts (used by strict argv validation).
inline bool common_flag(const std::string& arg) {
  return arg.rfind("--trace-out=", 0) == 0;
}

/// Attaches a Tracer (and optionally a Metrics registry) to a TestCluster's
/// machine for one measured run; the destructor detaches and, when a trace
/// path is set, writes the Chrome trace. `record` attaches the tracer even
/// without a path, so the caller can read the run's Machine::mark()/charge()
/// record back through tracer(). With no path, no metrics and no `record`
/// this is a no-op. Either way the simulated run is bit-identical to an
/// uninstrumented one.
class ScopedTrace {
 public:
  explicit ScopedTrace(TestCluster& tc, obs::Metrics* metrics = nullptr,
                       bool record = false)
      : machine_(tc.machine), path_(trace_out_path()) {
    if (metrics != nullptr) machine_.set_metrics(metrics);
    if (path_.empty() && !record) return;
    tracer_ = std::make_unique<obs::Tracer>(tc.simulator);
    if (!path_.empty()) bridge_ = std::make_unique<obs::LogBridge>(*tracer_);
    machine_.set_tracer(tracer_.get());
  }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  ~ScopedTrace() {
    machine_.set_metrics(nullptr);
    if (tracer_ == nullptr) return;
    machine_.set_tracer(nullptr);
    bridge_.reset();
    if (path_.empty()) return;
    const Status st = obs::write_chrome_trace(*tracer_, path_);
    if (!st.is_ok()) {
      std::fprintf(stderr, "trace export to %s failed: %s\n", path_.c_str(),
                   st.to_string().c_str());
    }
  }

  [[nodiscard]] obs::Tracer* tracer() { return tracer_.get(); }

 private:
  cluster::Machine& machine_;
  std::string path_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::LogBridge> bridge_;
};

/// Starts a plain (untraced) job and runs the simulation until the job's
/// tasks are up. Returns the launcher pid.
inline cluster::Pid start_plain_job(TestCluster& tc, int nnodes, int tpn) {
  auto res = rm::run_job(tc.machine, rm::JobSpec{nnodes, tpn, "mpi_app", {}});
  if (!res.is_ok()) {
    std::fprintf(stderr, "job start failed: %s\n",
                 res.status.to_string().c_str());
    return cluster::kInvalidPid;
  }
  tc.simulator.run(tc.simulator.now() + sim::seconds(10));
  return res.value;
}

}  // namespace lmon::bench
