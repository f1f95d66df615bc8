#include "core/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

namespace lmon::core {

std::string_view to_string(CollectiveProtocol proto) {
  return proto == CollectiveProtocol::Eager ? "eager" : "rendezvous";
}

int PerfModel::fabric_depth(const comm::TopologySpec& spec, int n) {
  if (n <= 1) return 0;
  switch (spec.kind) {
    case comm::TopologyKind::KAry: {
      const double k = static_cast<double>(spec.arity == 0 ? 1 : spec.arity);
      if (k <= 1.0) return n - 1;  // degenerate chain
      // Heap layout: a depth-d tree holds (k^(d+1)-1)/(k-1) ranks.
      int d = 0;
      double capacity = 1.0;
      double level = 1.0;
      while (capacity < static_cast<double>(n)) {
        level *= k;
        capacity += level;
        d += 1;
      }
      return d;
    }
    case comm::TopologyKind::Binomial: {
      // depth_of(r) = popcount(r); the deepest rank below n has
      // floor(log2(n)) set bits (2^b - 1 <= n - 1).
      int b = 0;
      while ((1ll << (b + 1)) - 1 <= static_cast<long long>(n) - 1) b += 1;
      return b;
    }
    case comm::TopologyKind::Flat:
      return 1;
  }
  return 1;
}

double PerfModel::fabric_pipeline_quanta(const comm::TopologySpec& spec,
                                         int n) {
  if (n <= 1) return 0.0;
  switch (spec.kind) {
    case comm::TopologyKind::Flat:
      return static_cast<double>(n - 1);
    case comm::TopologyKind::KAry: {
      const std::uint32_t k = spec.arity == 0 ? 1 : spec.arity;
      std::vector<double> arrival(static_cast<std::size_t>(n), 0.0);
      double worst = 0.0;
      for (int r = 1; r < n; ++r) {
        const int parent = (r - 1) / static_cast<int>(k);
        const double pos =
            static_cast<double>((r - 1) % static_cast<int>(k) + 1);
        arrival[static_cast<std::size_t>(r)] =
            arrival[static_cast<std::size_t>(parent)] + pos;
        worst = std::max(worst, arrival[static_cast<std::size_t>(r)]);
      }
      return worst;
    }
    case comm::TopologyKind::Binomial: {
      std::vector<double> arrival(static_cast<std::size_t>(n), 0.0);
      double worst = 0.0;
      for (int r = 1; r < n; ++r) {
        const int parent = r & (r - 1);  // clear the lowest set bit
        const int bit = r - parent;
        int pos = 1;
        while ((1 << (pos - 1)) < bit) pos += 1;  // children ascend by bit
        arrival[static_cast<std::size_t>(r)] =
            arrival[static_cast<std::size_t>(parent)] +
            static_cast<double>(pos);
        worst = std::max(worst, arrival[static_cast<std::size_t>(r)]);
      }
      return worst;
    }
  }
  return 0.0;
}

PerfModel::PerfModel(const cluster::CostModel& costs, std::uint32_t fanout)
    : costs_(costs), fanout_(fanout == 0 ? 2 : fanout) {}

int PerfModel::chunk_depth(int n, std::uint32_t fanout) const {
  if (n <= 1) return 0;
  // Contiguous chunk splitting with degree k: level l reaches ~k^l nodes.
  const std::uint32_t k = fanout == 0 ? 2 : fanout;
  if (k == 1) return n - 1;  // degenerate chain: one forward per level
  int levels = 0;
  double reached = 1.0;
  while (reached < static_cast<double>(n)) {
    reached *= static_cast<double>(k);
    levels += 1;
  }
  return levels;
}

int PerfModel::depth(int n) const { return chunk_depth(n, fanout_); }

double PerfModel::spawn_cost(double image_mb) const {
  return seconds(costs_.fork_cost + costs_.exec_base_cost +
                 static_cast<sim::Time>(
                     image_mb * static_cast<double>(costs_.exec_per_mb)) +
                 costs_.sched_latency);
}

double PerfModel::connect_cost() const {
  return seconds(3 * costs_.net_latency + costs_.connect_cost);
}

double PerfModel::transfer_cost(double bytes) const {
  return seconds(costs_.net_latency) +
         bytes / costs_.bandwidth_bytes_per_sec;
}

// --- per-strategy T(daemon) ---------------------------------------------------

double PerfModel::rsh_serialized_cost() const {
  // The rsh invocation blocks its caller (Process::reserve_busy): helper
  // fork plus session establishment serialize within one launching process.
  return seconds(costs_.rsh_client_fork + costs_.rsh_session_cost);
}

double PerfModel::rsh_tail_cost(double req_bytes, double image_mb) const {
  // After the session is up: connect to rshd, ship the exec request, rshd
  // authenticates and forks the command, which then finishes its own exec.
  return connect_cost() + transfer_cost(req_bytes) +
         seconds(costs_.rshd_spawn_cost) + spawn_cost(image_mb);
}

double PerfModel::rm_launch_hop(double n) const {
  // One level of the RM's tree-forwarded launch: connect to the next node
  // daemon, ship the host list, and let it handle the request.
  return connect_cost() + transfer_cost(16.0 * n) +
         seconds(costs_.rm_slurmd_handle);
}

double PerfModel::rm_bookkeeping(double n) const {
  // Launcher-side linear per-node work plus the super-linear RM term the
  // paper observed past ~512 daemons (mirrors Launcher::per_node_overhead).
  return n * seconds(costs_.rm_launcher_per_node) +
         costs_.rm_quadratic_ns_per_node2 * n * n * 1e-9;
}

double PerfModel::rm_bulk_daemons(int n, std::uint32_t launch_fanout) const {
  const double nn = static_cast<double>(n);
  const double dd = static_cast<double>(chunk_depth(n, launch_fanout));
  const double daemon_ack_bytes = kRpdtabEntryBytes * nn;
  return spawn_cost(costs_.launcher_image_mb) +
         seconds(costs_.rm_launcher_startup) + connect_cost() +
         seconds(costs_.rm_controller_rpc) + rm_bookkeeping(nn) +
         dd * rm_launch_hop(nn) + seconds(costs_.rm_task_setup) +
         spawn_cost(costs_.tool_daemon_image_mb) +
         dd * (transfer_cost(daemon_ack_bytes) +
               seconds(costs_.rm_slurmd_handle));
}

double PerfModel::serial_rsh_daemons(int n) const {
  // One blocking session per node, in order: the next target starts only
  // after the previous ExecResp arrived. The daemon argv carries the full
  // bootstrap host list, so the request grows (mildly) with n.
  const double req_bytes = 16.0 * static_cast<double>(n) + 128.0;
  const double per_target =
      rsh_serialized_cost() + connect_cost() + transfer_cost(req_bytes) +
      seconds(costs_.rshd_spawn_cost) + transfer_cost(64.0);
  return static_cast<double>(n) * per_target;
}

double PerfModel::tree_rsh_daemons(int n, std::uint32_t launch_fanout) const {
  // Mirrors the recursive agent protocol in rsh/launchers.cpp: an agent
  // covering m hosts spawns its local daemon (off the ack critical path),
  // rsh-starts one agent per contiguous chunk of the remaining m-1 hosts
  // (the k session costs serialize at that agent), and acks upward once
  // every child acked. The launching front end does the same over all n
  // hosts. Critical path: the *last* chunk at each level waits for k
  // serialized sessions, so cost is depth-dominated at O(k log_k n).
  const std::uint32_t k = launch_fanout == 0 ? 2 : launch_fanout;
  const double ser = rsh_serialized_cost();
  const double req_bytes = 16.0 * static_cast<double>(n) + 128.0;
  const double agent_tail = rsh_tail_cost(req_bytes, 2.0);  // agent image

  // T(m): agent start -> its TreeAck delivered at the parent.
  std::map<int, double> memo;
  auto subtree_time = [&](auto&& self, int m) -> double {
    if (m <= 0) return 0.0;
    auto it = memo.find(m);
    if (it != memo.end()) return it->second;
    double children_done = 0.0;
    const auto chunks =
        comm::split_contiguous(static_cast<std::size_t>(m - 1), k);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      const double child = static_cast<double>(i + 1) * ser + agent_tail +
                           self(self, static_cast<int>(chunks[i].second));
      children_done = std::max(children_done, child);
    }
    const double ack_bytes = 24.0 * static_cast<double>(m) + 64.0;
    const double done =
        children_done + connect_cost() + transfer_cost(ack_bytes);
    memo.emplace(m, done);
    return done;
  };

  // Front-end side: all n hosts are split (the FE itself runs no daemon).
  double total = 0.0;
  const auto root_chunks =
      comm::split_contiguous(static_cast<std::size_t>(n), k);
  for (std::size_t i = 0; i < root_chunks.size(); ++i) {
    const double chunk_done =
        static_cast<double>(i + 1) * ser + agent_tail +
        subtree_time(subtree_time, static_cast<int>(root_chunks[i].second));
    total = std::max(total, chunk_done);
  }
  return total;
}

// --- launchAndSpawn ------------------------------------------------------------

LaunchSpawnPrediction PerfModel::predict(
    comm::LaunchStrategyKind strategy, const comm::TopologySpec& fabric,
    int n_nodes, int procs_per_node,
    std::uint32_t rndv_threshold) const {
  LaunchSpawnPrediction p;
  const double n = static_cast<double>(n_nodes);
  const double ntasks = n * static_cast<double>(procs_per_node);

  // Resolve the fabric shape the way the FE API does: a k-ary arity of 0
  // means "the platform's RM fan-out". The launch protocol's degree (rsh
  // agents, RM node-daemon forwarding) follows the resolved arity.
  comm::TopologySpec resolved = fabric;
  if (resolved.kind == comm::TopologyKind::KAry && resolved.arity == 0) {
    resolved.arity = static_cast<std::uint32_t>(costs_.rm_launch_fanout);
  }
  const std::uint32_t launch_fanout =
      resolved.arity != 0
          ? resolved.arity
          : static_cast<std::uint32_t>(costs_.rm_launch_fanout);

  // --- T(job): allocate + tree-launch the application tasks; always the
  // RM's native path (at its own fan-out), whatever bootstraps the daemons.
  const std::uint32_t job_fanout =
      static_cast<std::uint32_t>(costs_.rm_launch_fanout);
  const double dj = static_cast<double>(chunk_depth(n_nodes, job_fanout));
  const double task_ack_bytes = kRpdtabEntryBytes * ntasks;
  p.t_job = seconds(costs_.rm_launcher_startup) + connect_cost() +
            seconds(costs_.rm_controller_rpc + costs_.rm_allocate_cost) +
            rm_bookkeeping(n) + dj * rm_launch_hop(n) +
            static_cast<double>(procs_per_node) *
                seconds(costs_.rm_task_setup) +
            spawn_cost(costs_.app_image_mb) +
            dj * (transfer_cost(task_ack_bytes) +
                  seconds(costs_.rm_slurmd_handle));

  // --- T(daemon): the strategy-dependent term -------------------------------
  switch (strategy) {
    case comm::LaunchStrategyKind::RmBulk:
      p.t_daemon = rm_bulk_daemons(n_nodes, launch_fanout);
      break;
    case comm::LaunchStrategyKind::SerialRsh:
      p.t_daemon = serial_rsh_daemons(n_nodes);
      break;
    case comm::LaunchStrategyKind::TreeRsh:
      p.t_daemon = tree_rsh_daemons(n_nodes, launch_fanout);
      break;
  }

  // --- T(setup): daemon fabric wiring (register wave down, SetupUp wave up)
  const double df = static_cast<double>(fabric_depth(resolved, n_nodes));
  p.t_setup = seconds(costs_.fabric_endpoint_init) +
              df * (connect_cost() + seconds(costs_.iccl_msg_handle)) +
              df * (transfer_cost(24.0) + seconds(costs_.iccl_msg_handle));

  // --- T(collective): RPDTAB broadcast down + ready-ack gather up -----------
  // The downward fan-out serializes per sibling but pipelines across
  // levels (see fabric_pipeline_quanta); the upward gather overlaps the
  // tail of the broadcast, so one pipelined pass dominates, plus the
  // payload transfers and per-hop receive handling along the deepest path.
  // Which protocol the broadcast rides follows the session threshold: below
  // it each sibling quantum carries the per-child payload copy and each hop
  // pays the receive-side copy-out (eager); at or above it the exact
  // rendezvous replay prices the RTS/CTS waves and chunk pipeline instead.
  const double rpdtab_bytes = kRpdtabEntryBytes * ntasks;
  const std::uint32_t eff_threshold =
      rndv_threshold != 0 ? rndv_threshold : costs_.iccl_rndv_threshold_bytes;
  const double ack_path = df * (transfer_cost(16.0 * n) +
                                seconds(costs_.iccl_msg_handle));
  if (rpdtab_bytes >= static_cast<double>(eff_threshold)) {
    p.t_collective =
        collective_bcast(CollectiveProtocol::Rendezvous, resolved, n_nodes,
                         static_cast<std::size_t>(rpdtab_bytes)) +
        ack_path;
  } else {
    const double eager_copy =
        rpdtab_bytes / 1024.0 * seconds(costs_.iccl_eager_copy_per_kb);
    const double pipeline_cost =
        fabric_pipeline_quanta(resolved, n_nodes) *
        (seconds(costs_.iccl_msg_handle) + eager_copy);
    p.t_collective = pipeline_cost +
                     df * (transfer_cost(rpdtab_bytes) + eager_copy) +
                     ack_path;
  }

  // --- LaunchMON terms -------------------------------------------------------
  p.tracing = static_cast<double>(costs_.rm_debug_events) *
              seconds(costs_.engine_handler_cost);
  p.rpdtab_fetch =
      seconds(costs_.mem_read_base) +
      rpdtab_bytes / 1024.0 * seconds(costs_.mem_read_per_kb);
  p.handshake = connect_cost() + transfer_cost(rpdtab_bytes) +
                transfer_cost(64.0) + transfer_cost(64.0);
  p.other = seconds(costs_.engine_fixed_cost) + spawn_cost(9.0) +
            connect_cost();
  return p;
}

bool PerfModel::predicts_failure(comm::LaunchStrategyKind strategy,
                                 int n_nodes) const {
  // Serial rsh pins one helper child (and one open session) per node at the
  // front end for the whole launch, so the per-user fork limit is a hard
  // wall. The tree variant holds at most `fanout` helpers per agent and the
  // RM path forks a single srun: neither exhausts the limit. On machines
  // whose compute/IO nodes run no remote-access services at all
  // (BlueGene-class lightweight kernels), every rsh flavor is dead on
  // arrival - only the RM's own launch path can place daemons.
  if (!costs_.has_remote_access &&
      strategy != comm::LaunchStrategyKind::RmBulk) {
    return true;
  }
  return strategy == comm::LaunchStrategyKind::SerialRsh &&
         n_nodes > costs_.rsh_fork_limit;
}

// --- collective protocol family (eager vs rendezvous) ------------------------
//
// Both forms replay the Iccl event schedule rank by rank in integral
// nanoseconds - same casts, same frame overheads, same per-channel FIFO
// clamp - so the bench's model-vs-measured residuals compare expectation
// against expectation, exactly like the launch models above.

namespace {

/// Encoded frame overhead: kind(1) + tag(4) + src(4) + count(4) per frame,
/// plus rank(4) + length(4) per entry (see iccl.cpp encode_frame).
constexpr double kFrameBytes = 13.0;
constexpr double kEntryBytes = 8.0;

sim::Time scaled_per_kb(sim::Time per_kb, double bytes) {
  return static_cast<sim::Time>(static_cast<double>(per_kb) * bytes /
                                1024.0);
}

/// Refills `out` with the children of `rank`, reusing its storage across
/// the ranks of a replay.
void children_into(const comm::Topology& topo, std::uint32_t rank,
                   std::vector<std::uint32_t>& out) {
  out.clear();
  topo.for_each_child(rank, [&](std::uint32_t c) { out.push_back(c); });
}

/// Shared probe geometry for the protocol-crossover solvers: both latency
/// curves are affine within a chunk segment, so probing both endpoints of
/// every segment up to max_payload finds the last eager win exactly, and
/// the zero crossing interpolates in closed form. `gap` is eager minus
/// rendezvous at a payload.
std::optional<std::size_t> crossover_from_gap(
    std::size_t chunk_bytes, std::size_t max_payload,
    const std::function<double(std::size_t)>& gap) {
  constexpr std::size_t kMin = 1024;
  if (max_payload < kMin) return std::nullopt;
  const std::size_t C = chunk_bytes;
  std::vector<std::size_t> probes{kMin};
  for (std::size_t m = kMin / C;; ++m) {
    const std::size_t begin = m * C + 1;
    if (begin > max_payload) break;
    const std::size_t end = (m + 1) * C;
    if (begin > kMin) probes.push_back(begin);
    if (end > kMin && end <= max_payload) probes.push_back(end);
  }
  if (probes.back() != max_payload) probes.push_back(max_payload);

  std::vector<double> f(probes.size());
  std::ptrdiff_t last_loss = -1;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    f[i] = gap(probes[i]);
    if (f[i] <= 0.0) last_loss = static_cast<std::ptrdiff_t>(i);
  }
  if (last_loss < 0) return kMin;  // cheaper from the smallest payload on
  if (last_loss + 1 == static_cast<std::ptrdiff_t>(probes.size())) {
    return std::nullopt;  // eager still wins at max_payload
  }
  const auto i = static_cast<std::size_t>(last_loss);
  const double p0 = static_cast<double>(probes[i]);
  const double p1 = static_cast<double>(probes[i + 1]);
  if (f[i + 1] - f[i] <= 0.0) return probes[i + 1];
  const double s = p0 + (0.0 - f[i]) * (p1 - p0) / (f[i + 1] - f[i]);
  return static_cast<std::size_t>(std::llround(s));
}

/// Wire time of one frame: link latency plus serialization, truncated to
/// whole nanoseconds.
sim::Time wire_time(const cluster::CostModel& costs, double bytes) {
  return costs.net_latency +
         static_cast<sim::Time>(bytes / costs.bandwidth_bytes_per_sec * 1e9);
}

/// Exact replay of the Iccl broadcast schedule on one fabric. The children
/// (one CSR array, in for_each_child order) and the rendezvous RTS/CTS wave
/// do not depend on the payload, so they are computed once.
///
/// Rendezvous chunks 0..m-2 are full-size, and chunk j's times at every
/// rank depend only on chunks <= j. So the state before the last chunk -
/// each rank's send cursor and each edge's FIFO-clamp last arrival - is the
/// same for every payload of m chunks. The replay keeps that full-chunk
/// prefix and extends it as payloads grow: a crossover scan over ascending
/// probes builds it once, and each payload then costs one O(n) pass for its
/// last chunk. Walking the chunks outermost changes no value: each time is
/// the same integer max and sum of the same terms as when every rank
/// streams all its chunks in turn, so the doubles are bit-identical
/// (perf_model_strategy_test pins them).
class BcastReplay {
 public:
  BcastReplay(const cluster::CostModel& costs, const comm::Topology& topo)
      : costs_(costs), n_(topo.size()) {
    first_.resize(std::size_t{n_} + 1);
    for (std::uint32_t r = 0; r < n_; ++r) {
      first_[r] = static_cast<std::uint32_t>(child_.size());
      topo.for_each_child(r, [&](std::uint32_t c) { child_.push_back(c); });
    }
    first_[n_] = static_cast<std::uint32_t>(child_.size());
    // RTS wave down (eager-style stagger, tiny frames), CTS back: H[r] is
    // when rank r's RTS is processed (root: issue time 0), cts_done[r] when
    // r has every child's CTS. The RTS is each edge's first arrival.
    const sim::Time h = costs_.iccl_msg_handle;
    const sim::Time rts_wire =
        wire_time(costs_, kFrameBytes + kEntryBytes + 4.0);
    const sim::Time cts_wire = wire_time(costs_, kFrameBytes);
    H_.assign(n_, 0);
    cts_done_.assign(n_, 0);
    rts_arr_.resize(child_.size());
    for (std::uint32_t r = 0; r < n_; ++r) {
      for (std::uint32_t e = first_[r]; e < first_[r + 1]; ++e) {
        rts_arr_[e] =
            H_[r] + static_cast<sim::Time>(e - first_[r]) * h + rts_wire;
        H_[child_[e]] = rts_arr_[e] + h;
        cts_done_[r] = std::max(cts_done_[r], H_[child_[e]] + cts_wire + h);
      }
    }
    t_.assign(n_, 0);
    restart_prefix();
  }

  /// Time of the last delivery of a `payload_bytes` broadcast.
  sim::Time run(CollectiveProtocol proto, std::size_t payload_bytes) {
    if (n_ <= 1) return 0;
    return proto == CollectiveProtocol::Eager ? eager(payload_bytes)
                                              : rendezvous(payload_bytes);
  }

 private:
  /// Store-and-forward: a node starts its own fan-out only once the full
  /// payload arrived and the receive copy-out is paid. A send quantum and
  /// the receive copy-out cost the same.
  sim::Time eager(std::size_t payload_bytes) {
    const double S = static_cast<double>(payload_bytes);
    const sim::Time q = costs_.iccl_msg_handle +
                        scaled_per_kb(costs_.iccl_eager_copy_per_kb, S);
    const sim::Time frame_wire =
        wire_time(costs_, kFrameBytes + kEntryBytes + S);
    sim::Time worst = 0;
    for (std::uint32_t r = 0; r < n_; ++r) {
      for (std::uint32_t e = first_[r]; e < first_[r + 1]; ++e) {
        const sim::Time send =
            t_[r] + static_cast<sim::Time>(e - first_[r]) * q;
        t_[child_[e]] = send + frame_wire + q;
        worst = std::max(worst, t_[child_[e]]);
      }
    }
    return worst;
  }

  /// Chunks stream round-robin through each parent's serialized cursor
  /// while relays forward cut-through, once every child's CTS is in.
  sim::Time rendezvous(std::size_t payload_bytes) {
    const std::uint32_t C = costs_.iccl_rndv_chunk_bytes;
    const auto m = static_cast<std::uint32_t>((payload_bytes + C - 1) / C);
    if (m == 0) return *std::max_element(H_.begin() + 1, H_.end());
    if (m - 1 < full_) restart_prefix();
    const sim::Time full_wire = wire_time(
        costs_, kFrameBytes + kEntryBytes + static_cast<double>(C));
    for (; full_ < m - 1; ++full_) chunk_pass(full_wire, true);
    const double tail_bytes = static_cast<double>(payload_bytes) -
                              static_cast<double>(m - 1) * C;
    const sim::Time tail_wire =
        wire_time(costs_, kFrameBytes + kEntryBytes + tail_bytes);
    return chunk_pass(tail_wire, false);
  }

  /// Empties the full-chunk prefix: no cursor has sent, and each edge's
  /// last arrival is its RTS.
  void restart_prefix() {
    full_ = 0;
    cursor_.assign(n_, 0);
    last_arrival_ = rts_arr_;
  }

  /// Streams one chunk through every rank, parents first, and returns the
  /// latest time a non-root rank processed it. `commit` appends it to the
  /// full-chunk prefix; otherwise the cursors and FIFO clamps are only read
  /// (a payload's last chunk).
  sim::Time chunk_pass(sim::Time chunk_wire, bool commit) {
    const sim::Time c_h = costs_.iccl_chunk_handle;
    sim::Time worst = 0;
    // t_[r]: time the chunk is processed (ready to deliver/forward) at r;
    // the root holds every chunk at issue time.
    t_[0] = 0;
    for (std::uint32_t r = 0; r < n_; ++r) {
      if (first_[r] == first_[r + 1]) continue;
      const sim::Time ready = std::max(t_[r], cts_done_[r]);
      sim::Time cursor = cursor_[r];
      for (std::uint32_t e = first_[r]; e < first_[r + 1]; ++e) {
        const sim::Time depart = std::max(cursor, ready);
        sim::Time arr = depart + chunk_wire;
        if (arr <= last_arrival_[e]) arr = last_arrival_[e] + 1;  // FIFO
        if (commit) last_arrival_[e] = arr;
        t_[child_[e]] = arr + c_h;
        worst = std::max(worst, t_[child_[e]]);
        cursor = depart + c_h;
      }
      if (commit) cursor_[r] = cursor;
    }
    return worst;
  }

  const cluster::CostModel& costs_;
  std::uint32_t n_;
  // Children of r: child_[first_[r] .. first_[r + 1]); e indexes an edge.
  std::vector<std::uint32_t> first_, child_;
  std::vector<sim::Time> H_, cts_done_, rts_arr_;
  // Per-rank times of the pass in progress (eager or one chunk).
  std::vector<sim::Time> t_;
  // The full-chunk prefix: the state before chunk full_.
  std::uint32_t full_ = 0;
  std::vector<sim::Time> cursor_, last_arrival_;
};

}  // namespace

double PerfModel::collective_bcast(CollectiveProtocol proto,
                                   const comm::TopologySpec& spec, int n,
                                   std::size_t payload_bytes) const {
  const comm::Topology topo = resolved_topology(spec, n);
  return seconds(BcastReplay(costs_, topo).run(proto, payload_bytes));
}

std::optional<std::size_t> PerfModel::collective_crossover(
    const comm::TopologySpec& spec, int n, std::size_t max_payload) const {
  // Definition: the smallest payload above which rendezvous never loses
  // again in [1 KiB, max_payload]; see crossover_from_gap for the segment
  // probe geometry. bench_ablation_iccl measures the same definition on
  // the same probe geometry. The probes ascend, so one replay extends its
  // full-chunk prefix once across the whole scan.
  const comm::Topology topo = resolved_topology(spec, n);
  BcastReplay replay(costs_, topo);
  return crossover_from_gap(
      costs_.iccl_rndv_chunk_bytes, max_payload, [&](std::size_t s) {
        return seconds(replay.run(CollectiveProtocol::Eager, s)) -
               seconds(replay.run(CollectiveProtocol::Rendezvous, s));
      });
}

namespace {

/// Exact replay of the Iccl upstream schedule on one fabric. The release
/// wave, subtree sizes, announce wave and clearance chain do not depend on
/// the payload, so they are computed once; chunk buffers are pooled, so a
/// crossover scan replays every probe payload without rebuilding either.
class GatherReplay {
 public:
  GatherReplay(const cluster::CostModel& costs, const comm::Topology& topo)
      : costs_(costs), topo_(topo) {
    const std::uint32_t nn = topo_.size();
    if (nn <= 1) return;
    const sim::Time h = costs_.iccl_msg_handle;
    // Release wave: the root broadcasts an empty go frame (eager; 21 wire
    // bytes, handle-only quanta); rank r's contribution is issued the
    // moment its release frame is processed. A[0] = 0: the root issues the
    // release and contributes in the same event.
    A_.assign(nn, 0);
    const sim::Time frame_wire =
        wire_time(costs_, kFrameBytes + kEntryBytes);
    for (std::uint32_t r = 0; r < nn; ++r) {
      sim::Time stagger = 0;
      topo_.for_each_child(r, [&](std::uint32_t c) {
        A_[c] = A_[r] + stagger + frame_wire + h;
        stagger += h;
      });
    }
    // Subtree sizes (parent < child in every fabric family).
    sz_.assign(nn, 1);
    for (std::uint32_t r = nn - 1; r >= 1; --r) {
      sz_[*topo_.parent_of(r)] += sz_[r];
    }
    // Rendezvous announce wave up (GatherRts, one 12-byte origin record per
    // subtree rank). R[r]: rank r's announce time (at the root: last
    // announce processed, >= own contribute); rts_arr[c]: c's RTS arrival
    // at its parent.
    R_.assign(nn, 0);
    rts_arr_.assign(nn, 0);
    for (std::uint32_t r = nn; r-- > 0;) {
      sim::Time t = A_[r];
      topo_.for_each_child(r, [&](std::uint32_t c) {
        rts_arr_[c] =
            R_[c] + wire_time(costs_, kFrameBytes + 12.0 * sz_[c]);
        t = std::max(t, rts_arr_[c] + h);
      });
      R_[r] = t;
    }
    // G[c]: time child c's clearance (GatherCts) is processed at c. The
    // root clears each child the moment its RTS is processed; an interior
    // node clears its children (ascending rank, staggered handle quanta)
    // only after its own clearance arrives - the flow-control chain.
    G_.assign(nn, 0);
    const sim::Time cts_wire = wire_time(costs_, kFrameBytes);
    for (std::uint32_t r = 0; r < nn; ++r) {
      sim::Time stagger = 0;
      topo_.for_each_child(r, [&](std::uint32_t c) {
        const sim::Time depart = r == 0 ? rts_arr_[c] + h : G_[r] + stagger;
        G_[c] = depart + cts_wire + h;
        stagger += h;
      });
    }
    sched_.resize(nn);
  }

  /// Root delivery time of a gather of `payload_bytes` per rank.
  sim::Time run(CollectiveProtocol proto, std::size_t payload_bytes) {
    if (topo_.size() <= 1) return 0;
    if (proto == CollectiveProtocol::Eager || payload_bytes == 0) {
      return eager(static_cast<double>(payload_bytes));
    }
    return rendezvous(payload_bytes);
  }

 private:
  /// One chunk on a link: its ready (or departure) time and the wire time
  /// of its frame. Every chunk is full-sized except each contribution's
  /// tail, so only two wire times exist per replay.
  struct Chunk {
    sim::Time t;
    sim::Time wire;
  };

  /// Store-and-forward: each node waits for every child's whole-subtree
  /// GatherUp, then forwards one combined frame; the receiver pays the
  /// handle plus the bounce-buffer copy-out of the full frame payload.
  sim::Time eager(double S) {
    const std::uint32_t nn = topo_.size();
    const sim::Time h = costs_.iccl_msg_handle;
    U_.assign(nn, 0);
    for (std::uint32_t r = nn; r-- > 0;) {
      sim::Time t = A_[r];
      topo_.for_each_child(r, [&](std::uint32_t c) {
        const double entry_bytes =
            static_cast<double>(sz_[c]) * (kEntryBytes + S);
        const sim::Time processed =
            U_[c] + wire_time(costs_, kFrameBytes + entry_bytes) + h +
            scaled_per_kb(costs_.iccl_eager_copy_per_kb,
                          static_cast<double>(sz_[c]) * S);
        t = std::max(t, processed);
      });
      U_[r] = t;
    }
    return U_[0];
  }

  /// Chunks stream through each node's serialized cursor with cut-through
  /// relay. A relay's own chunks are all enqueued at G[r] and each child's
  /// arrival stream strictly increases (per-channel FIFO), so the cursor's
  /// time order is a stable merge of those sorted streams: own chunks
  /// first, then each child's stream in ascending child order, the earlier
  /// stream winning ties.
  sim::Time rendezvous(std::size_t payload_bytes) {
    const std::uint32_t nn = topo_.size();
    const std::uint32_t C = costs_.iccl_rndv_chunk_bytes;
    const sim::Time c_h = costs_.iccl_chunk_handle;
    const double S = static_cast<double>(payload_bytes);
    const auto m = static_cast<std::uint32_t>((payload_bytes + C - 1) / C);
    const sim::Time full_wire =
        wire_time(costs_, kFrameBytes + kEntryBytes + static_cast<double>(C));
    const sim::Time tail_wire = wire_time(
        costs_,
        kFrameBytes + kEntryBytes + (S - static_cast<double>(m - 1) * C));
    // sched[r]: rank r's upstream chunk departures, built children-first.
    for (std::uint32_t r = nn; r-- > 1;) {
      own_.assign(m - 1, Chunk{G_[r], full_wire});
      own_.push_back(Chunk{G_[r], tail_wire});
      heads_.clear();
      heads_.push_back({G_[r], own_.data(), own_.data() + m});
      std::size_t total = m;
      topo_.for_each_child(r, [&](std::uint32_t c) {
        arrive(c, c_h);
        const std::vector<Chunk>& in = sched_[c];
        if (in.empty()) return;
        heads_.push_back({in.front().t, in.data(), in.data() + in.size()});
        total += in.size();
      });
      std::vector<Chunk> out = take_buffer();
      out.resize(total);
      Chunk* o = out.data();
      sim::Time cursor = 0;
      while (!heads_.empty()) {
        std::size_t best = 0;  // strict < keeps the earliest stream on ties
        for (std::size_t i = 1; i < heads_.size(); ++i) {
          if (heads_[i].t < heads_[best].t) best = i;
        }
        Head& hd = heads_[best];
        const sim::Time depart = std::max(cursor, hd.t);
        *o++ = Chunk{depart, hd.next->wire};
        cursor = depart + c_h;
        if (++hd.next == hd.end) {
          heads_.erase(heads_.begin() + static_cast<std::ptrdiff_t>(best));
        } else {
          hd.t = hd.next->t;
        }
      }
      topo_.for_each_child(r, [&](std::uint32_t c) { release(sched_[c]); });
      sched_[r] = std::move(out);
    }
    // Root delivery: own contribution and every announce processed (R[0]),
    // plus the last chunk of every child stream processed.
    sim::Time done = R_[0];
    topo_.for_each_child(0, [&](std::uint32_t c) {
      arrive(c, c_h);
      if (!sched_[c].empty()) done = std::max(done, sched_[c].back().t);
      release(sched_[c]);
    });
    return done;
  }

  /// Rewrites child c's departures into processed times at its parent:
  /// arrival (clamped behind c's RTS and its previous chunk, per-channel
  /// FIFO) plus the chunk handle.
  void arrive(std::uint32_t c, sim::Time c_h) {
    sim::Time last_arrival = rts_arr_[c];
    for (Chunk& ch : sched_[c]) {
      sim::Time arr = ch.t + ch.wire;
      if (arr <= last_arrival) arr = last_arrival + 1;  // FIFO
      last_arrival = arr;
      ch.t = arr + c_h;
    }
  }

  std::vector<Chunk> take_buffer() {
    if (pool_.empty()) return {};
    std::vector<Chunk> buf = std::move(pool_.back());
    pool_.pop_back();
    buf.clear();
    return buf;
  }

  void release(std::vector<Chunk>& buf) {
    if (buf.capacity() != 0) pool_.push_back(std::move(buf));
    buf = {};
  }

  const cluster::CostModel& costs_;
  const comm::Topology& topo_;
  std::vector<sim::Time> A_, R_, rts_arr_, G_, U_;
  std::vector<std::uint32_t> sz_;
  std::vector<std::vector<Chunk>> sched_;
  std::vector<std::vector<Chunk>> pool_;  // freed schedules, for reuse
  // Merge state of the rank being replayed: its own chunks and the next
  // unconsumed chunk of every stream.
  struct Head {
    sim::Time t;  // ready time of *next
    const Chunk* next;
    const Chunk* end;
  };
  std::vector<Chunk> own_;
  std::vector<Head> heads_;
};

}  // namespace

comm::Topology PerfModel::resolved_topology(const comm::TopologySpec& spec,
                                            int n) const {
  comm::TopologySpec resolved = spec;
  if (resolved.kind == comm::TopologyKind::KAry && resolved.arity == 0) {
    resolved.arity = static_cast<std::uint32_t>(costs_.rm_launch_fanout);
  }
  return comm::Topology(resolved, static_cast<std::uint32_t>(std::max(n, 0)));
}

double PerfModel::collective_gather(CollectiveProtocol proto,
                                    const comm::TopologySpec& spec, int n,
                                    std::size_t payload_bytes) const {
  const comm::Topology topo = resolved_topology(spec, n);
  return seconds(GatherReplay(costs_, topo).run(proto, payload_bytes));
}

std::optional<std::size_t> PerfModel::collective_gather_crossover(
    const comm::TopologySpec& spec, int n, std::size_t max_payload) const {
  const comm::Topology topo = resolved_topology(spec, n);
  GatherReplay replay(costs_, topo);
  return crossover_from_gap(
      costs_.iccl_rndv_chunk_bytes, max_payload, [&](std::size_t s) {
        return seconds(replay.run(CollectiveProtocol::Eager, s)) -
               seconds(replay.run(CollectiveProtocol::Rendezvous, s));
      });
}

double PerfModel::collective_scatter(CollectiveProtocol proto,
                                     const comm::TopologySpec& spec, int n,
                                     std::size_t payload_bytes) const {
  if (n <= 1) return 0.0;
  const comm::Topology topo = resolved_topology(spec, n);
  const sim::Time h = costs_.iccl_msg_handle;
  const double S = static_cast<double>(payload_bytes);
  const auto nn = static_cast<std::uint32_t>(n);

  // Subtree sizes (parent < child in every fabric family).
  std::vector<std::uint32_t> sz(nn, 1);
  for (std::uint32_t r = nn - 1; r >= 1; --r) {
    sz[*topo.parent_of(r)] += sz[r];
  }

  if (proto == CollectiveProtocol::Eager) {
    // Exact replay of handle_scatter: start[r] is when rank r's handler
    // runs (its whole subtree frame processed); its own part is delivered
    // in that same event. Child i's frame departs after the serialized
    // quanta of the parts queued before it.
    std::vector<sim::Time> start(nn, 0);
    std::vector<std::uint32_t> children;
    sim::Time worst = 0;
    for (std::uint32_t r = 0; r < nn; ++r) {
      children_into(topo, r, children);
      sim::Time offset = 0;
      for (const std::uint32_t c : children) {
        const double part_data = static_cast<double>(sz[c]) * S;
        const double frame_bytes =
            kFrameBytes + static_cast<double>(sz[c]) * (kEntryBytes + S);
        start[c] = start[r] + offset + wire_time(costs_, frame_bytes) + h +
                   scaled_per_kb(costs_.iccl_eager_copy_per_kb, part_data);
        worst = std::max(worst, start[c]);
        offset += h + scaled_per_kb(costs_.iccl_eager_copy_per_kb, part_data);
      }
    }
    return seconds(worst);
  }

  // Hypothetical rendezvous scatter. Each link carries the child's whole
  // subtree stream, laid out subtree-major: the child's own entry first,
  // then each grandchild segment in children order (recursively). A relay
  // cut-through-forwards an outbound chunk the moment the inbound chunk
  // covering its byte range retires; the root holds everything at t=0.
  const std::uint32_t C = costs_.iccl_rndv_chunk_bytes;
  const sim::Time c_h = costs_.iccl_chunk_handle;
  const sim::Time rts_wire = wire_time(costs_, kFrameBytes + kEntryBytes + 4.0);
  const sim::Time cts_wire = wire_time(costs_, kFrameBytes);
  const double entry = kEntryBytes + S;
  auto stream_bytes = [&](std::uint32_t r) {
    return static_cast<double>(sz[r]) * entry;
  };
  auto chunks_of = [&](double bytes) {
    return static_cast<std::uint32_t>(
        (static_cast<std::size_t>(bytes) + C - 1) / C);
  };

  // H[r]: rank r's RTS processed; P[r][k]: inbound chunk k retired at r.
  // delivered[r]: r's own entry handed to its scatter handler (the chunk
  // covering stream bytes [0, entry) - the head of its inbound stream).
  std::vector<sim::Time> H(nn, 0);
  std::vector<std::vector<sim::Time>> P(nn);
  std::vector<sim::Time> delivered(nn, 0);
  std::vector<std::uint32_t> children;
  sim::Time worst = 0;
  for (std::uint32_t r = 0; r < nn; ++r) {
    children_into(topo, r, children);
    if (children.empty()) continue;
    // RTS fan-out and the CTS collection gate, as in the bcast replay.
    std::vector<sim::Time> last_arrival(children.size());
    sim::Time cts_done = 0;
    for (std::size_t i = 0; i < children.size(); ++i) {
      const sim::Time rts_arr =
          H[r] + static_cast<sim::Time>(i) * h + rts_wire;
      last_arrival[i] = rts_arr;
      H[children[i]] = rts_arr + h;
      cts_done = std::max(cts_done, H[children[i]] + cts_wire + h);
    }
    // Offset of child i's segment within r's own inbound stream (own entry
    // first, then prior siblings' segments). The root reads from the
    // caller's buffer: every byte is available at t=0.
    double seg_off = entry;
    std::vector<std::uint32_t> m_of(children.size());
    std::vector<double> off_of(children.size());
    std::uint32_t m_max = 0;
    for (std::size_t i = 0; i < children.size(); ++i) {
      off_of[i] = seg_off;
      m_of[i] = chunks_of(stream_bytes(children[i]));
      m_max = std::max(m_max, m_of[i]);
      seg_off += stream_bytes(children[i]);
    }
    for (std::size_t i = 0; i < children.size(); ++i) {
      P[children[i]].assign(m_of[i], 0);
    }
    // Serialized chunk cursor, round-robin across the children.
    sim::Time cursor = 0;
    for (std::uint32_t j = 0; j < m_max; ++j) {
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (j >= m_of[i]) continue;
        const double B = stream_bytes(children[i]);
        const double chunk_bytes =
            j + 1 == m_of[i] ? B - static_cast<double>(j) * C
                             : static_cast<double>(C);
        // Cut-through gate: the inbound chunk covering the *last* byte of
        // this outbound range must have retired.
        sim::Time avail = 0;
        if (r != 0) {
          const double last_byte =
              off_of[i] + static_cast<double>(j) * C + chunk_bytes - 1.0;
          const auto k = static_cast<std::size_t>(last_byte /
                                                  static_cast<double>(C));
          avail = P[r][std::min(k, P[r].size() - 1)];
        }
        const sim::Time ready = std::max(avail, cts_done);
        const sim::Time chunk_wire =
            wire_time(costs_, kFrameBytes + kEntryBytes + chunk_bytes);
        const sim::Time depart = std::max(cursor, ready);
        sim::Time arr = depart + chunk_wire;
        if (arr <= last_arrival[i]) arr = last_arrival[i] + 1;  // FIFO
        last_arrival[i] = arr;
        P[children[i]][j] = arr + c_h;
        cursor = depart + c_h;
      }
    }
    for (std::size_t i = 0; i < children.size(); ++i) {
      const auto head = static_cast<std::size_t>((entry - 1.0) /
                                                 static_cast<double>(C));
      const std::uint32_t c = children[i];
      delivered[c] = P[c][std::min(head, P[c].size() - 1)];
      worst = std::max(worst, delivered[c]);
    }
  }
  return seconds(worst);
}

std::optional<std::size_t> PerfModel::collective_scatter_crossover(
    const comm::TopologySpec& spec, int n, std::size_t max_payload) const {
  return crossover_from_gap(
      costs_.iccl_rndv_chunk_bytes, max_payload, [&](std::size_t s) {
        return collective_scatter(CollectiveProtocol::Eager, spec, n, s) -
               collective_scatter(CollectiveProtocol::Rendezvous, spec, n, s);
      });
}

std::optional<int> PerfModel::crossover(
    comm::LaunchStrategyKind challenger, comm::LaunchStrategyKind incumbent,
    const comm::TopologySpec& fabric, int procs_per_node,
    int max_nodes) const {
  // Walk n upward and report the first n from which the challenger stays
  // cheaper. Launch-tree depth steps make the cost curves piecewise, so a
  // single sign change is not enough: require the lead to survive the next
  // depth step (doubling) before declaring the crossover.
  for (int n = 2; n <= max_nodes; ++n) {
    if (predicts_failure(incumbent, n) && !predicts_failure(challenger, n)) {
      return n;  // incumbent cannot even run here
    }
    if (predicts_failure(challenger, n)) continue;
    const double c = predict(challenger, fabric, n, procs_per_node).total();
    const double i = predict(incumbent, fabric, n, procs_per_node).total();
    if (c >= i) continue;
    bool holds = true;
    for (int probe = n + 1; probe <= std::min(max_nodes, 2 * n); ++probe) {
      if (predicts_failure(incumbent, probe)) break;
      const double cp =
          predict(challenger, fabric, probe, procs_per_node).total();
      const double ip =
          predict(incumbent, fabric, probe, procs_per_node).total();
      if (cp >= ip) {
        holds = false;
        break;
      }
    }
    if (holds) return n;
  }
  return std::nullopt;
}

}  // namespace lmon::core
