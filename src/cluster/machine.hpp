// machine.hpp - the whole simulated cluster: nodes + network + pid space.
//
// Layout mirrors the paper's Atlas testbed: one front-end/login node whose
// software stack matches the compute nodes, plus N compute nodes; tool front
// ends and RM launchers run on the front-end node, applications and daemons
// on compute nodes. Extra "service" nodes can be reserved for TBON
// communication daemons (the paper's middleware partition).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cluster/cost_model.hpp"
#include "cluster/network.hpp"
#include "cluster/node.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simkernel/simulator.hpp"

namespace lmon::cluster {

/// An installed binary: how to instantiate its behaviour and how big its
/// image is (exec cost, DPCL parse cost). The registry stands in for the
/// cluster's shared filesystem - the RM's node daemons and rshd exec
/// programs by name. The factory is handed an empty list: a program reads
/// its argv from Process::args() once it starts, where a launch's shared
/// entries stay views of one buffer.
struct ProgramImage {
  std::function<std::unique_ptr<Program>(const std::vector<std::string>&)>
      factory;
  double image_mb = 4.0;
};

struct MachineConfig {
  int num_compute_nodes = 16;
  /// Nodes reserved for middleware (TBON comm processes); allocated from the
  /// tail of the compute range by the RM when a tool requests them.
  int num_middleware_nodes = 0;
  std::string host_prefix = "atlas";
  CostModel costs;
};

class Machine {
 public:
  Machine(sim::Simulator& simulator, MachineConfig config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] const CostModel& costs() const noexcept {
    return config_.costs;
  }
  [[nodiscard]] NetworkModel& network() noexcept { return network_; }
  [[nodiscard]] const MachineConfig& config() const noexcept {
    return config_;
  }

  /// Total node count: 1 front end + compute + middleware.
  [[nodiscard]] int num_nodes() const noexcept {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] int num_compute_nodes() const noexcept {
    return config_.num_compute_nodes;
  }
  [[nodiscard]] int num_middleware_nodes() const noexcept {
    return config_.num_middleware_nodes;
  }

  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] Node& front_end() { return *nodes_.front(); }
  /// i in [0, num_compute_nodes).
  [[nodiscard]] Node& compute_node(int i) { return *nodes_.at(1 + i); }
  /// i in [0, num_middleware_nodes).
  [[nodiscard]] Node& middleware_node(int i) {
    return *nodes_.at(1 + config_.num_compute_nodes + i);
  }

  [[nodiscard]] Node* find_host(std::string_view hostname);
  /// Pids are handed out densely from kFirstPid and never reused, and a
  /// process object lives as long as its Machine, so this is an array index.
  [[nodiscard]] Process* find_process(Pid pid) noexcept {
    const auto i = static_cast<std::uint64_t>(pid - kFirstPid);
    return i < procs_.size() ? procs_[i] : nullptr;
  }

  /// Charged fork/exec jitter draws and per-subsystem rng streams.
  [[nodiscard]] sim::Rng fork_rng() { return sim_.rng().fork(); }

  /// Applies multiplicative jitter from the cost model's proc_jitter.
  [[nodiscard]] sim::Time jittered(sim::Time base);

  static constexpr Pid kFirstPid = 1000;
  Pid alloc_pid() noexcept { return next_pid_++; }
  Channel::Id alloc_channel_id() noexcept { return next_channel_++; }

  /// Establishes a connection from `from` to host:port (async; see
  /// Process::connect). Charges connect time; fails if no listener.
  void open_connection(Process& from, const std::string& host, Port port,
                       ConnectCallback cb);

  // --- program registry (shared filesystem stand-in) -----------------------
  void install_program(const std::string& name, ProgramImage image) {
    programs_[name] = std::move(image);
  }
  [[nodiscard]] const ProgramImage* find_program(const std::string& name) const {
    auto it = programs_.find(name);
    return it == programs_.end() ? nullptr : &it->second;
  }

  // --- observability hooks (obs/) ------------------------------------------
  // Two sinks: the attached Tracer (spans, instants, critical-path marks and
  // charges) and Metrics (counters, histograms, gauges). Whoever owns the
  // Machine attaches them and exports the trace; the library never does.
  // Purely observational: components record through these when attached,
  // never schedule events or charge costs, and skip all work - building
  // trace strings included - when the hooks are null, so traced and
  // untraced runs of the same seed produce identical simulated timings.

  /// Critical-path events (e0..e11 of the paper's §4 model) and component
  /// cost charges; this models the "instrumented version of LaunchMON" the
  /// authors used to fit their model. Both land in the attached Tracer
  /// (Tracer::marks()/charges(), obs::extract_regions()).
  void mark(const std::string& label) {
    if (tracer_ != nullptr) tracer_->mark(label);
  }
  void charge(const std::string& label, sim::Time amount) {
    if (tracer_ != nullptr) tracer_->charge(label, amount);
  }
  [[nodiscard]] obs::Tracer* tracer() noexcept { return tracer_; }
  /// Attaches a tracer and names its export tracks/lanes after the cluster's
  /// hostnames and already-running programs (defined in machine.cpp).
  void set_tracer(obs::Tracer* t);
  [[nodiscard]] obs::Metrics* metrics() noexcept { return metrics_; }
  void set_metrics(obs::Metrics* m) noexcept { metrics_ = m; }
  void count(const std::string& name, double delta = 1) {
    if (metrics_ != nullptr) metrics_->add(name, delta);
  }
  void observe(const std::string& name, double value) {
    if (metrics_ != nullptr) metrics_->observe(name, value);
  }
  void gauge(const std::string& name, double value) {
    if (metrics_ != nullptr) metrics_->set_gauge(name, value);
  }

  // Bookkeeping used by Node::spawn (defined in machine.cpp so the tracer
  // can label each new pid's export lane). Pids are indexed in allocation
  // order.
  void index_process(Pid pid, Process* p);

 private:
  sim::Simulator& sim_;
  MachineConfig config_;
  NetworkModel network_;
  sim::Rng jitter_rng_{0};
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Transparent hash, so find_host looks a string_view up without
  /// building a std::string.
  struct HostHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, Node*, HostHash, std::equal_to<>>
      host_index_;
  std::vector<Process*> procs_;  ///< by pid - kFirstPid
  std::unordered_map<std::string, ProgramImage> programs_;
  obs::Tracer* tracer_ = nullptr;
  obs::Metrics* metrics_ = nullptr;
  Pid next_pid_ = kFirstPid;
  Channel::Id next_channel_ = 1;
};

}  // namespace lmon::cluster
