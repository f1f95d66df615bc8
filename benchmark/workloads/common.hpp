// common.hpp - what every benchmark workload shares: seeded inputs, cluster
// boot through the public install calls, the stepping loop with its optional
// per-step probe, host clocks, and the record one pass of a workload fills.
//
// Nothing here comes from tests/ or bench/: the benchmark boots its clusters
// only with library calls, so code outside benchmark/ cannot change what it
// measures except by changing the program itself.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <memory_resource>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/mpi_app.hpp"
#include "apps/test_programs.hpp"
#include "cluster/machine.hpp"
#include "core/fe_api.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/trace.hpp"
#include "rm/resource_manager.hpp"
#include "rsh/launchers.hpp"
#include "rsh/rshd.hpp"
#include "simkernel/simulator.hpp"

namespace lmon::benchmark {

// --- host clocks and allocation counters -------------------------------------

/// CPU time of the calling thread as a std::chrono clock. Host costs are
/// measured on it: the simulator is single-threaded and does no I/O, so on
/// an idle machine it equals wall time, and on a shared one it leaves out
/// the time other processes held the CPU.
struct HostClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<HostClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(duration(std::int64_t{ts.tv_sec} * 1'000'000'000 +
                               ts.tv_nsec));
  }
};

/// Fine-grained timing (each simulator step in traced passes) stays on the
/// monotonic wall clock, which is cheaper to read.
using StepClock = std::chrono::steady_clock;

inline double seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/// Heap allocations made by this process, counted by lmon_bench's global
/// operator new (alloc_count.cpp). The simulator is single-threaded.
struct AllocCounters {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
AllocCounters& alloc_counters();

// --- seeded inputs --------------------------------------------------------------

/// splitmix64. The benchmark derives every input from --seed with this
/// generator, independently of the simulator's own cost-jitter streams.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Keeps the reference kernel's result live.
inline volatile std::uint64_t reference_kernel_sink = 0;

/// Host ms of one pass of a fixed piece of work shaped like the simulator's
/// (node-based map updates and a few large copies), run in buffers of its
/// own so the program's heap cannot change it. Run next to each measurement
/// window, it tracks how fast this machine is at the moment: host times are
/// reported relative to it (see host_ms_per_op in lmon_bench.cpp).
inline double reference_kernel_ms() {
  static std::vector<std::byte> arena(4 << 20);
  static std::vector<std::uint8_t> src(1 << 20, 0x5a);
  static std::vector<std::uint8_t> dst(1 << 20);
  const auto t0 = HostClock::now();
  std::pmr::monotonic_buffer_resource res(arena.data(), arena.size(),
                                          std::pmr::null_memory_resource());
  std::pmr::map<std::uint64_t, std::uint64_t> m(&res);
  InputRng rng(7);
  std::uint64_t acc = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.below(8192);
    acc += (m[k] += k);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    std::memcpy(dst.data(), src.data(), src.size());
    src[i] = dst[acc % dst.size()];
  }
  reference_kernel_sink = acc + dst[acc % dst.size()];
  return std::chrono::duration<double, std::milli>(HostClock::now() - t0)
      .count();
}

/// Seed of an independent input stream (`stream` names its purpose).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return InputRng(seed ^ (stream * 0xd1b54a32d192ed03ULL)).next();
}

/// Seeded bytes that payloads are cut from: a payload is a (offset, size)
/// slice, so a receiver can check what it got against the pool.
class PayloadPool {
 public:
  PayloadPool(std::uint64_t seed, std::size_t size) : bytes_(size) {
    InputRng rng(seed);
    for (std::size_t i = 0; i < size; i += 8) {
      const std::uint64_t v = rng.next();
      std::memcpy(bytes_.data() + i, &v, std::min<std::size_t>(8, size - i));
    }
  }

  [[nodiscard]] Bytes slice(std::size_t offset, std::size_t n) const {
    return Bytes(bytes_.begin() + static_cast<std::ptrdiff_t>(offset),
                 bytes_.begin() + static_cast<std::ptrdiff_t>(offset + n));
  }
  [[nodiscard]] bool matches(const Bytes& got, std::size_t offset,
                             std::size_t n) const {
    return got.size() == n &&
           std::memcmp(got.data(), bytes_.data() + offset, n) == 0;
  }
  /// Offset of a slice of `n` bytes for input `key` (deterministic).
  [[nodiscard]] std::size_t offset_for(std::uint64_t key, std::size_t n) const {
    return static_cast<std::size_t>(InputRng(key).next() %
                                    (bytes_.size() - n + 1));
  }

 private:
  Bytes bytes_;
};

// --- statistics ------------------------------------------------------------------

/// Nearest-rank percentile, q in (0, 1]. 0 for no samples.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// The highest nearest-rank percentile with at least 10 samples beyond it:
/// p75 of 40 samples, p99 of 1000; the maximum below 11 samples.
inline double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() >= 11 ? v.size() - 11 : v.size() - 1];
}

// --- one pass of a workload -------------------------------------------------------

/// Set-ups per run for the workloads that set up one tree: the median of
/// several keeps setup_s steady.
constexpr int kTreeSetups = 15;

struct Params {
  std::uint64_t seed = 1;
  int ops = 1;          ///< operations in the timed phase
  bool smoke = false;   ///< toy cluster sizes
  bool traced = false;  ///< Tracer + Metrics attached, step probe on
  std::string trace_out;  ///< Perfetto export of the first operation
};

/// Per-step host timing and queue depth, recorded in traced passes only.
struct StepProbe {
  std::vector<std::uint32_t> step_ns;
  double pending_sum = 0;
  std::size_t pending_max = 0;
};

/// One measured stretch of host work and the reference kernel's time
/// around it.
struct HostSample {
  double host = 0;       ///< ms per operation for a window, s for a set-up
  double kernel_ms = 0;  ///< mean of the kernel just before and just after
};

/// Times a stretch of host work, running the reference kernel on both sides
/// of it so the stretch can be scaled by how fast the machine was then.
class Stopwatch {
 public:
  Stopwatch() : kernel_before_ms_(reference_kernel_ms()), t0_(HostClock::now()) {}

  /// Host seconds since construction, with the kernel time around them.
  [[nodiscard]] HostSample stop() const {
    const double s = seconds_since(t0_);
    return {s, (kernel_before_ms_ + reference_kernel_ms()) / 2};
  }

 private:
  double kernel_before_ms_;
  HostClock::time_point t0_;
};

/// What one pass measured. lmon_bench.cpp turns it into metrics.
struct PassResult {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  std::vector<double> latency_ms;   ///< simulated, per completed operation
  std::vector<HostSample> windows;  ///< host ms per operation, per window
  std::vector<HostSample> setups;   ///< host s, per set-up instance
  double timed_host_s = 0;          ///< host time of the timed phase
  std::uint64_t events = 0;         ///< simulator events in the timed phase
  AllocCounters allocs;             ///< heap traffic in the timed phase
  double tool_bytes = 0;            ///< payload bytes handed to the API
  // Traced passes only.
  obs::Metrics metrics;             ///< counters of the timed phase
  StepProbe probe;
  std::map<std::string, double> layers;  ///< workload-specific layer values

  void error(std::string what) {
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

/// Accumulates the host time and heap traffic of the timed phase; set-up
/// and teardown happen outside start()/stop().
class TimedPhase {
 public:
  explicit TimedPhase(PassResult& r) : r_(r) {}
  void start(const sim::Simulator& sim) {
    t0_ = HostClock::now();
    events0_ = sim.executed_events();
    allocs0_ = alloc_counters();
  }
  void stop(const sim::Simulator& sim) {
    r_.timed_host_s += seconds_since(t0_);
    r_.events += sim.executed_events() - events0_;
    r_.allocs.count += alloc_counters().count - allocs0_.count;
    r_.allocs.bytes += alloc_counters().bytes - allocs0_.bytes;
  }

 private:
  PassResult& r_;
  HostClock::time_point t0_;
  std::size_t events0_ = 0;
  AllocCounters allocs0_;
};

// --- the simulated cluster ------------------------------------------------------------

/// A booted cluster: RM, rshd and the standard program images installed,
/// daemons given 50 ms of simulated time to come up.
struct Cluster {
  Cluster(int compute_nodes, int middleware_nodes, std::uint64_t seed)
      : sim(seed),
        machine(sim, cluster::MachineConfig{compute_nodes, middleware_nodes,
                                            "atlas", cluster::CostModel{}}) {
    Status st = rm::install(machine);
    if (!st.is_ok()) throw std::runtime_error("rm install: " + st.to_string());
    st = rsh::install(machine);
    if (!st.is_ok()) throw std::runtime_error("rsh install: " + st.to_string());
    rsh::install_tree_agent(machine);
    apps::MpiApp::install(machine);
    apps::HelloBeDaemon::install(machine);
    sim.run(sim::ms(50));
  }

  /// Spawns a tool front end on the login node; `script` runs in its
  /// on_start. Returns the FE process.
  cluster::Process& spawn_fe(apps::ScriptedFrontEnd::Script script) {
    cluster::SpawnOptions opts;
    opts.executable = "tool_fe";
    opts.image_mb = 6.0;
    auto res = machine.front_end().spawn(
        std::make_unique<apps::ScriptedFrontEnd>(std::move(script)),
        std::move(opts));
    if (!res.is_ok()) {
      throw std::runtime_error("spawn fe: " + res.status.to_string());
    }
    return *machine.find_process(res.value);
  }

  sim::Simulator sim;
  cluster::Machine machine;
};

/// Steps the simulator until `done()` holds, the queue drains, or `timeout`
/// of simulated time passes. Returns done(). With a probe, each step is
/// timed on the monotonic clock and the queue depth sampled before it.
template <typename Pred>
bool run_until(sim::Simulator& sim, Pred done, sim::Time timeout,
               StepProbe* probe = nullptr) {
  const sim::Time deadline = sim.now() + timeout;
  while (!done()) {
    if (sim.now() > deadline) return false;
    if (probe == nullptr) {
      if (!sim.step()) return done();
      continue;
    }
    const std::size_t pending = sim.pending_events();
    probe->pending_sum += static_cast<double>(pending);
    probe->pending_max = std::max(probe->pending_max, pending);
    const auto t0 = StepClock::now();
    const bool ran = sim.step();
    probe->step_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(StepClock::now() -
                                                             t0)
            .count(),
        UINT32_MAX)));
    if (!ran) return done();
  }
  return true;
}

/// Attaches a Tracer and the pass's Metrics to a machine for the timed
/// phase of a traced pass; does nothing in an untraced pass. The first
/// tracer is exported to `export_path` when one is given, so an exported
/// trace covers one operation (or one window) and stays bounded.
class Instruments {
 public:
  Instruments(Cluster& c, PassResult& r, bool traced,
              std::string export_path = {})
      : sim_(c.sim), machine_(c.machine), r_(r),
        export_path_(std::move(export_path)) {
    if (!traced) return;
    tracer_ = std::make_unique<obs::Tracer>(sim_);
    machine_.set_tracer(tracer_.get());
    machine_.set_metrics(&r.metrics);
  }
  ~Instruments() {
    if (tracer_ == nullptr) return;
    retire_tracer();
    machine_.set_tracer(nullptr);
    machine_.set_metrics(nullptr);
  }
  Instruments(const Instruments&) = delete;
  Instruments& operator=(const Instruments&) = delete;

  [[nodiscard]] obs::Tracer* tracer() { return tracer_.get(); }

  /// Swaps in a fresh tracer, which bounds tracer memory over a long timed
  /// phase. Span ids restart, so a span that straddles a rotation is not
  /// reliable; only the instant tally is read from rotated tracers.
  void rotate() {
    if (tracer_ == nullptr) return;
    retire_tracer();
    auto fresh = std::make_unique<obs::Tracer>(sim_);
    machine_.set_tracer(fresh.get());
    tracer_ = std::move(fresh);
  }

 private:
  /// Tallies the tracer's ICCL clearance instants and exports it if it is
  /// the first.
  void retire_tracer() {
    r_.layers["iccl.cts_received"] += static_cast<double>(std::count_if(
        tracer_->instants().begin(), tracer_->instants().end(),
        [](const obs::InstantRecord& i) {
          return i.name == "iccl.cts_received";
        }));
    if (export_path_.empty()) return;
    const Status st = obs::write_chrome_trace(*tracer_, export_path_);
    if (!st.is_ok()) r_.error("trace export: " + st.to_string());
    export_path_.clear();
  }

  sim::Simulator& sim_;
  cluster::Machine& machine_;
  PassResult& r_;
  std::string export_path_;
  std::unique_ptr<obs::Tracer> tracer_;
};

/// Live process count of every node (the teardown invariant's baseline).
inline std::vector<int> live_counts(cluster::Machine& m) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(m.num_nodes()));
  for (int i = 0; i < m.num_nodes(); ++i) {
    out.push_back(m.node(static_cast<cluster::NodeId>(i)).live_process_count());
  }
  return out;
}

}  // namespace lmon::benchmark
