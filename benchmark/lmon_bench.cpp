// lmon_bench - runs one benchmark workload and prints its metrics.
//
//   lmon_bench --workload W --seed N --seconds S --trace 0|1
//              [--smoke] [--trace-out=PATH]
//
// --trace 0 runs the workload once, untraced, and reports the end-to-end
// metrics. --trace 1 runs it untraced and then traced with the same seed,
// checks that both saw identical simulated results, and reports the
// per-layer metrics; with --trace-out it also writes the Perfetto trace of
// the traced pass's first operation. --smoke runs toy sizes. Every metric
// is printed as `workload name value unit`; the last line of standard
// output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// The exit code is 0 only when every correctness check passed.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "workloads/attach_churn.hpp"
#include "workloads/collective_rounds.hpp"
#include "workloads/common.hpp"
#include "workloads/launch_spawn.hpp"
#include "workloads/stat_attach.hpp"

namespace {

using namespace lmon::benchmark;

struct Workload {
  const char* name;
  PassResult (*run)(const Params&);
  /// Operations per second of --seconds, measured on a 4-core x86 host so
  /// that a run's timed phase lasts about --seconds. Fixed, so that a seed
  /// and a length always give the same inputs.
  double ops_per_second;
  int quantum;    ///< operation count is a multiple of this (one window)
  int smoke_ops;
};

const Workload kWorkloads[] = {
    {"launch_spawn", run_launch_spawn, 2.0, 1, 4},
    {"collective_rounds", run_collective_rounds, 44.0, 16, 32},
    {"attach_churn", run_attach_churn, 50.0, 20, 20},
    {"stat_attach", run_stat_attach, 2.0, 1, 4},
};

/// The reference kernel's median host time on the 4-core x86 host the
/// operation rates were measured on. Host times are reported as if the
/// machine ran the kernel at this speed: scaling each window by the kernel
/// time measured around it cancels most of the drift a shared machine shows
/// between runs.
constexpr double kReferenceKernelMs = 2.4;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics in report order. Counters of the program's own
/// obs::Metrics registry keep their names.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"simkernel.events", "count"},
    {"simkernel.ns_per_event", "ns"},
    {"simkernel.step_ns_p50", "ns"},
    {"simkernel.step_ns_p99", "ns"},
    {"simkernel.pending_mean", "count"},
    {"simkernel.pending_max", "count"},
    {"host.cpu_ms_per_op", "ms"},
    {"host.ref_kernel_ms", "ms"},
    {"host.allocs", "count"},
    {"host.alloc_mb", "MB"},
    {"cluster.messages", "count"},
    {"cluster.bytes", "B"},
    {"cluster.wire_ratio", "ratio"},
    {"rm.job_s", "s"},
    {"rm.daemon_s", "s"},
    {"comm.setup_s", "s"},
    {"iccl.handshake_s", "s"},
    {"engine.tracing_s", "s"},
    {"engine.rpdtab_s", "s"},
    {"engine.other_s", "s"},
    {"fe.handshake_s", "s"},
    {"launch.unattributed_s", "s"},
    {"fe.engine_starting_host_s", "s"},
    {"fe.spawning_host_s", "s"},
    {"fe.handshaking_host_s", "s"},
    {"iccl.bcast_eager_ms_p50", "ms"},
    {"iccl.bcast_rndv_ms_p50", "ms"},
    {"iccl.gather_small_ms_p50", "ms"},
    {"iccl.gather_large_ms_p50", "ms"},
    {"iccl.cts_received", "count"},
    {"iccl.gather_chunks_relayed", "count"},
    {"daemon.early_bcast_buffered", "count"},
    {"iccl.mux.rr_grants", "count"},
    {"iccl.mux.cts_deferred", "count"},
    {"iccl.mux.unbound_drops", "count"},
    {"fe.vattach", "count"},
    {"fe.vdetach", "count"},
    {"fe.attach_ms_p50", "ms"},
    {"fe.attach_ms_tail", "ms"},
    {"stat.attach_s", "s"},
    {"stat.connect_s", "s"},
    {"stat.merge_s", "s"},
    {"tbon.bootstrap_s", "s"},
    {"tbon.packets", "count"},
    {"tbon.up_parts", "count"},
    {"tbon.rounds_reduced", "count"},
    {"tbon.children_registered", "count"},
    {"obs.trace_overhead_pct", "%"},
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Median of the samples, each scaled to the reference kernel speed by the
/// kernel time measured around it.
double at_reference_speed(const std::vector<HostSample>& samples) {
  std::vector<double> v;
  for (const HostSample& s : samples) {
    v.push_back(s.host * kReferenceKernelMs / s.kernel_ms);
  }
  return median(v);
}

double raw_median(const std::vector<HostSample>& samples,
                  double HostSample::*field) {
  std::vector<double> v;
  for (const HostSample& s : samples) v.push_back(s.*field);
  return median(v);
}

std::vector<Metric> end_to_end(const PassResult& r) {
  return {
      {"latency_ms_p50", median(r.latency_ms), "ms"},
      {"latency_ms_tail", tail(r.latency_ms), "ms"},
      {"host_ms_per_op", at_reference_speed(r.windows), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", at_reference_speed(r.setups), "s"},
  };
}

std::vector<Metric> per_layer(const PassResult& plain,
                              const PassResult& traced) {
  std::map<std::string, double> v = traced.layers;
  v["simkernel.events"] = static_cast<double>(traced.events);
  v["simkernel.ns_per_event"] =
      plain.events == 0 ? 0
                        : plain.timed_host_s * 1e9 /
                              static_cast<double>(plain.events);
  std::vector<double> steps(traced.probe.step_ns.begin(),
                            traced.probe.step_ns.end());
  v["simkernel.step_ns_p50"] = steps.empty() ? 0 : median(steps);
  v["simkernel.step_ns_p99"] = steps.empty() ? 0 : percentile(steps, 0.99);
  v["simkernel.pending_mean"] =
      steps.empty() ? 0
                    : traced.probe.pending_sum / static_cast<double>(steps.size());
  v["simkernel.pending_max"] = static_cast<double>(traced.probe.pending_max);
  v["host.cpu_ms_per_op"] = raw_median(plain.windows, &HostSample::host);
  v["host.ref_kernel_ms"] = raw_median(plain.windows, &HostSample::kernel_ms);
  v["host.allocs"] = static_cast<double>(plain.allocs.count);
  v["host.alloc_mb"] = static_cast<double>(plain.allocs.bytes) / (1024.0 * 1024.0);
  v["cluster.messages"] = traced.metrics.counter("net.messages_total");
  v["cluster.bytes"] = traced.metrics.counter("net.bytes_total");
  v["cluster.wire_ratio"] =
      v["cluster.bytes"] > 0 ? traced.tool_bytes / v["cluster.bytes"] : 0;
  // Medians of the windows, so that the first pass's warm-up (page faults
  // into a fresh heap) does not count against the untraced side.
  const double plain_ms = at_reference_speed(plain.windows);
  v["obs.trace_overhead_pct"] =
      plain_ms > 0
          ? (at_reference_speed(traced.windows) - plain_ms) / plain_ms * 100
          : 0;
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = v.find(name);
    out.push_back(
        {name, it != v.end() ? it->second : traced.metrics.counter(name),
         unit});
  }
  return out;
}

/// Observability must stay observational: the traced pass sees the same
/// simulated results and event count as the untraced one.
void check_determinism(const PassResult& plain, PassResult& traced) {
  if (plain.latency_ms != traced.latency_ms) {
    traced.error("traced and untraced passes measured different latencies");
  }
  // An untraced pass fills only the layer values it reads off the
  // simulated clock.
  for (const auto& [name, value] : plain.layers) {
    auto it = traced.layers.find(name);
    if (it == traced.layers.end() || it->second != value) {
      traced.error("traced and untraced passes differ on " + name);
    }
  }
  if (plain.events != traced.events) {
    traced.error("traced pass executed " + std::to_string(traced.events) +
                 " events, untraced " + std::to_string(plain.events));
  }
  if (plain.failed != traced.failed) {
    traced.error("traced and untraced passes failed different operations");
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "-1";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W --seed N --seconds S --trace 0|1 "
               "[--smoke] [--trace-out=PATH]\nworkloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> opts;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
      continue;
    }
    if (a.rfind("--", 0) != 0) return usage(argv[0]);
    const std::size_t eq = a.find('=');
    std::string key = a.substr(2, eq == std::string::npos ? std::string::npos
                                                          : eq - 2);
    std::string value;
    if (eq != std::string::npos) {
      value = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage(argv[0]);
    }
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "trace-out") {
      return usage(argv[0]);
    }
    opts[key] = value;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (opts["workload"] == cand.name) w = &cand;
  }
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(opts["seed"].c_str(), &end, 10);
  const bool seed_ok = !opts["seed"].empty() && *end == '\0';
  const double seconds = std::atof(opts["seconds"].c_str());
  const std::string trace = opts["trace"];
  if (w == nullptr || !seed_ok || !(seconds > 0) ||
      (trace != "0" && trace != "1")) {
    return usage(argv[0]);
  }

  Params params;
  params.seed = seed;
  params.smoke = smoke;
  params.trace_out = opts["trace-out"];
  params.ops = smoke ? w->smoke_ops
                     : std::max(1, static_cast<int>(std::lround(
                                       seconds * w->ops_per_second /
                                       w->quantum))) *
                           w->quantum;

  std::vector<Metric> metrics;
  PassResult result;
  (void)reference_kernel_ms();  // first call allocates its buffers
  try {
    PassResult plain = w->run(params);
    if (trace == "0") {
      metrics = end_to_end(plain);
      result = std::move(plain);
    } else {
      params.traced = true;
      result = w->run(params);
      check_determinism(plain, result);
      metrics = per_layer(plain, result);
      for (std::string& e : plain.errors) result.error(std::move(e));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", w->name, e.what());
    return 1;
  }

  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "%s: check failed: %s\n", w->name, e.c_str());
  }
  // The host figures behind the normalised ones, for reading a run.
  std::printf("%s ops %d (%d failed), host cpu %.6g ms/op, kernel %.6g ms\n",
              w->name, result.attempted, result.failed,
              raw_median(result.windows, &HostSample::host),
              raw_median(result.windows, &HostSample::kernel_ms));
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s\n", w->name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = result.errors.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
