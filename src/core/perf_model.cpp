#include "core/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

#include "core/iccl.hpp"

namespace lmon::core {

std::string_view to_string(CollectiveProtocol proto) {
  return proto == CollectiveProtocol::Eager ? "eager" : "rendezvous";
}

namespace {

/// Serialized message quanta on the critical path of an eager fan-out down
/// `topo`. A parent's sends serialize in child order, one quantum each, but
/// levels pipeline: a child forwards the moment its own copy arrives, while
/// its parent still serves later siblings. So a rank's copy lands after the
/// sum of the sibling positions along its root path, and the worst rank
/// sets the pace - not depth x degree.
double pipeline_quanta(const comm::Topology& topo) {
  std::vector<double> arrival(topo.size(), 0.0);
  double worst = 0.0;
  for (std::uint32_t r = 0; r < topo.size(); ++r) {
    double position = 0.0;
    topo.for_each_child(r, [&](std::uint32_t c) {
      position += 1.0;
      arrival[c] = arrival[r] + position;
      worst = std::max(worst, arrival[c]);
    });
  }
  return worst;
}

}  // namespace

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

  // Resolve the fabric shape the way the FE API does: an arity of 0 means
  // "the platform's RM fan-out", for the k-ary fabric and for the launch
  // protocol's degree (rsh agents, RM node-daemon forwarding) alike.
  const comm::Topology topo = resolved_topology(fabric, n_nodes);
  const std::uint32_t launch_fanout =
      fabric.arity != 0 ? fabric.arity
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
  const double df = static_cast<double>(topo.depth());
  p.t_setup = seconds(costs_.fabric_endpoint_init) +
              df * (connect_cost() + seconds(costs_.iccl_msg_handle)) +
              df * (transfer_cost(24.0) + seconds(costs_.iccl_msg_handle));

  // --- T(collective): RPDTAB broadcast down + ready-ack gather up -----------
  // The downward fan-out serializes per sibling but pipelines across
  // levels (see pipeline_quanta); the upward gather overlaps the
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
        collective_bcast(CollectiveProtocol::Rendezvous, fabric, n_nodes,
                         static_cast<std::size_t>(rpdtab_bytes)) +
        ack_path;
  } else {
    const double eager_copy =
        rpdtab_bytes / 1024.0 * seconds(costs_.iccl_eager_copy_per_kb);
    const double pipeline_cost =
        pipeline_quanta(topo) * (seconds(costs_.iccl_msg_handle) + eager_copy);
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
// Every replay walks the Iccl event schedule rank by rank in integral
// nanoseconds, on the cost terms the simulation itself charges: frames
// priced in the codec's sizes (Iccl::kFrameHeaderBytes and friends),
// CostModel::wire_time and eager_copy_cost, cluster::send_departure for
// every serialized sender and cluster::fifo_arrival for every link. So the
// bench's model-vs-measured residuals compare expectation against
// expectation, exactly like the launch models above.

namespace {

// Frame sizes in the codec's terms (core/iccl.hpp).
constexpr auto kFrameBytes = static_cast<double>(Iccl::kFrameHeaderBytes);
constexpr auto kEntryBytes = static_cast<double>(Iccl::kEntryHeaderBytes);
constexpr auto kTotalEntryBytes = static_cast<double>(Iccl::kTotalEntryBytes);

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

/// A fabric as the replays walk it, built once per replay: the children of
/// every rank in for_each_child order as one CSR array (the children of r
/// are child[first[r] .. first[r + 1]), and e indexes an edge).
struct Fabric {
  explicit Fabric(const comm::Topology& topo) : n(topo.size()) {
    first.resize(std::size_t{n} + 1);
    for (std::uint32_t r = 0; r < n; ++r) {
      first[r] = static_cast<std::uint32_t>(child.size());
      topo.for_each_child(r, [&](std::uint32_t c) { child.push_back(c); });
    }
    first[n] = static_cast<std::uint32_t>(child.size());
  }

  /// The size of every rank's subtree (children outrank their parent in
  /// every fabric family).
  [[nodiscard]] std::vector<std::uint32_t> subtree_sizes() const {
    std::vector<std::uint32_t> size(n, 1);
    for (std::uint32_t r = n; r-- > 0;) {
      for (std::uint32_t e = first[r]; e < first[r + 1]; ++e) {
        size[r] += size[child[e]];
      }
    }
    return size;
  }

  std::uint32_t n;
  std::vector<std::uint32_t> first, child;
};

/// The rendezvous handshake down a fabric, which a broadcast and a scatter
/// run alike before their first chunk: the RTS wave (each rank's serialized
/// fan-out of tiny frames) and the CTS back. rts_done[r] is when rank r's
/// RTS is processed (root: issue time 0), cts_done[r] when r holds every
/// child's CTS, and rts_arrival[e] edge e's RTS arrival, its first.
struct DownHandshake {
  DownHandshake(const cluster::CostModel& costs, const Fabric& f)
      : rts_done(f.n, 0), cts_done(f.n, 0), rts_arrival(f.child.size()) {
    const sim::Time h = costs.iccl_msg_handle;
    const sim::Time rts_wire = costs.wire_time(kFrameBytes + kTotalEntryBytes);
    const sim::Time cts_wire = costs.wire_time(kFrameBytes);
    for (std::uint32_t r = 0; r < f.n; ++r) {
      sim::Time cursor = 0;
      for (std::uint32_t e = f.first[r]; e < f.first[r + 1]; ++e) {
        rts_arrival[e] =
            cluster::send_departure(cursor, rts_done[r], h) + rts_wire;
        rts_done[f.child[e]] = rts_arrival[e] + h;
        cts_done[r] =
            std::max(cts_done[r], rts_done[f.child[e]] + cts_wire + h);
      }
    }
  }

  std::vector<sim::Time> rts_done, cts_done, rts_arrival;
};

/// Exact replay of the Iccl broadcast schedule on one fabric. The children
/// and the rendezvous handshake do not depend on the payload, so they are
/// computed once.
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
      : costs_(costs), f_(topo), hs_(costs, f_), t_(f_.n, 0) {
    restart_prefix();
  }

  /// Time of the last delivery of a `payload_bytes` broadcast.
  sim::Time run(CollectiveProtocol proto, std::size_t payload_bytes) {
    if (f_.n <= 1) return 0;
    return proto == CollectiveProtocol::Eager ? eager(payload_bytes)
                                              : rendezvous(payload_bytes);
  }

 private:
  /// Store-and-forward: a node starts its own fan-out only once the full
  /// payload arrived and the receive copy-out is paid. A send quantum and
  /// the receive copy-out cost the same.
  sim::Time eager(std::size_t payload_bytes) {
    const double S = static_cast<double>(payload_bytes);
    const sim::Time q = costs_.iccl_msg_handle + costs_.eager_copy_cost(S);
    const sim::Time frame_wire =
        costs_.wire_time(kFrameBytes + kEntryBytes + S);
    sim::Time worst = 0;
    for (std::uint32_t r = 0; r < f_.n; ++r) {
      sim::Time cursor = 0;
      for (std::uint32_t e = f_.first[r]; e < f_.first[r + 1]; ++e) {
        const sim::Time c = f_.child[e];
        t_[c] = cluster::send_departure(cursor, t_[r], q) + frame_wire + q;
        worst = std::max(worst, t_[c]);
      }
    }
    return worst;
  }

  /// Chunks stream round-robin through each parent's serialized cursor
  /// while relays forward cut-through, once every child's CTS is in.
  sim::Time rendezvous(std::size_t payload_bytes) {
    const std::uint32_t C = costs_.iccl_rndv_chunk_bytes;
    const auto m = static_cast<std::uint32_t>((payload_bytes + C - 1) / C);
    if (m == 0) {
      return *std::max_element(hs_.rts_done.begin() + 1, hs_.rts_done.end());
    }
    if (m - 1 < full_) restart_prefix();
    const sim::Time full_wire = costs_.wire_time(
        kFrameBytes + kEntryBytes + static_cast<double>(C));
    for (; full_ < m - 1; ++full_) chunk_pass(full_wire, true);
    const double tail_bytes = static_cast<double>(payload_bytes) -
                              static_cast<double>(m - 1) * C;
    const sim::Time tail_wire =
        costs_.wire_time(kFrameBytes + kEntryBytes + tail_bytes);
    return chunk_pass(tail_wire, false);
  }

  /// Empties the full-chunk prefix: no cursor has sent, and each edge's
  /// last arrival is its RTS.
  void restart_prefix() {
    full_ = 0;
    cursor_.assign(f_.n, 0);
    last_arrival_ = hs_.rts_arrival;
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
    for (std::uint32_t r = 0; r < f_.n; ++r) {
      if (f_.first[r] == f_.first[r + 1]) continue;
      const sim::Time ready = std::max(t_[r], hs_.cts_done[r]);
      sim::Time cursor = cursor_[r];
      for (std::uint32_t e = f_.first[r]; e < f_.first[r + 1]; ++e) {
        const sim::Time arr = cluster::fifo_arrival(
            cluster::send_departure(cursor, ready, c_h) + chunk_wire,
            last_arrival_[e]);
        if (commit) last_arrival_[e] = arr;
        t_[f_.child[e]] = arr + c_h;
        worst = std::max(worst, t_[f_.child[e]]);
      }
      if (commit) cursor_[r] = cursor;
    }
    return worst;
  }

  const cluster::CostModel& costs_;
  const Fabric f_;
  const DownHandshake hs_;
  // Per-rank times of the pass in progress (eager or one chunk).
  std::vector<sim::Time> t_;
  // The full-chunk prefix: the state before chunk full_.
  std::uint32_t full_ = 0;
  std::vector<sim::Time> cursor_, last_arrival_;
};

/// Exact replay of the Iccl upstream schedule on one fabric. The release
/// wave, announce wave and clearance chain do not depend on the payload, so
/// they are computed once; chunk buffers are pooled, so a crossover scan
/// replays every probe payload without rebuilding either.
class GatherReplay {
 public:
  GatherReplay(const cluster::CostModel& costs, const comm::Topology& topo)
      : costs_(costs), f_(topo), sz_(f_.subtree_sizes()) {
    const std::uint32_t nn = f_.n;
    if (nn <= 1) return;
    const sim::Time h = costs_.iccl_msg_handle;
    // Release wave: the root broadcasts an empty go frame (eager: a header
    // and one empty entry, handle-only quanta); rank r's contribution is
    // issued the moment its release frame is processed. A[0] = 0: the root
    // issues the release and contributes in the same event.
    A_.assign(nn, 0);
    const sim::Time frame_wire = costs_.wire_time(kFrameBytes + kEntryBytes);
    for (std::uint32_t r = 0; r < nn; ++r) {
      sim::Time cursor = 0;
      for (std::uint32_t e = f_.first[r]; e < f_.first[r + 1]; ++e) {
        A_[f_.child[e]] =
            cluster::send_departure(cursor, A_[r], h) + frame_wire + h;
      }
    }
    // Rendezvous announce wave up (GatherRts, one origin record per subtree
    // rank). R[r]: rank r's announce time (at the root: last announce
    // processed, >= own contribute); rts_arr[c]: c's RTS arrival at its
    // parent.
    R_.assign(nn, 0);
    rts_arr_.assign(nn, 0);
    for (std::uint32_t r = nn; r-- > 0;) {
      sim::Time t = A_[r];
      for (std::uint32_t e = f_.first[r]; e < f_.first[r + 1]; ++e) {
        const std::uint32_t c = f_.child[e];
        rts_arr_[c] =
            R_[c] + costs_.wire_time(kFrameBytes + kTotalEntryBytes * sz_[c]);
        t = std::max(t, rts_arr_[c] + h);
      }
      R_[r] = t;
    }
    // G[c]: time child c's clearance (GatherCts) is processed at c. The
    // root clears each child the moment its RTS is processed; an interior
    // node clears its children (ascending rank, serialized handle quanta)
    // only after its own clearance arrives - the flow-control chain.
    G_.assign(nn, 0);
    const sim::Time cts_wire = costs_.wire_time(kFrameBytes);
    for (std::uint32_t r = 0; r < nn; ++r) {
      sim::Time cursor = 0;
      for (std::uint32_t e = f_.first[r]; e < f_.first[r + 1]; ++e) {
        const std::uint32_t c = f_.child[e];
        const sim::Time depart = r == 0
                                     ? rts_arr_[c] + h
                                     : cluster::send_departure(cursor, G_[r], h);
        G_[c] = depart + cts_wire + h;
      }
    }
    sched_.resize(nn);
  }

  /// Root delivery time of a gather of `payload_bytes` per rank.
  sim::Time run(CollectiveProtocol proto, std::size_t payload_bytes) {
    if (f_.n <= 1) return 0;
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
    const std::uint32_t nn = f_.n;
    const sim::Time h = costs_.iccl_msg_handle;
    U_.assign(nn, 0);
    for (std::uint32_t r = nn; r-- > 0;) {
      sim::Time t = A_[r];
      for (std::uint32_t e = f_.first[r]; e < f_.first[r + 1]; ++e) {
        const std::uint32_t c = f_.child[e];
        const auto ranks = static_cast<double>(sz_[c]);
        const sim::Time processed =
            U_[c] + costs_.wire_time(kFrameBytes + ranks * (kEntryBytes + S)) +
            h + costs_.eager_copy_cost(ranks * S);
        t = std::max(t, processed);
      }
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
    const std::uint32_t nn = f_.n;
    const std::uint32_t C = costs_.iccl_rndv_chunk_bytes;
    const sim::Time c_h = costs_.iccl_chunk_handle;
    const double S = static_cast<double>(payload_bytes);
    const auto m = static_cast<std::uint32_t>((payload_bytes + C - 1) / C);
    const sim::Time full_wire = costs_.wire_time(
        kFrameBytes + kEntryBytes + static_cast<double>(C));
    const sim::Time tail_wire = costs_.wire_time(
        kFrameBytes + kEntryBytes + (S - static_cast<double>(m - 1) * C));
    // sched[r]: rank r's upstream chunk departures, built children-first.
    for (std::uint32_t r = nn; r-- > 1;) {
      own_.assign(m - 1, Chunk{G_[r], full_wire});
      own_.push_back(Chunk{G_[r], tail_wire});
      heads_.clear();
      heads_.push_back({G_[r], own_.data(), own_.data() + m});
      std::size_t total = m;
      for (std::uint32_t e = f_.first[r]; e < f_.first[r + 1]; ++e) {
        const std::uint32_t c = f_.child[e];
        arrive(c, c_h);
        const std::vector<Chunk>& in = sched_[c];
        if (in.empty()) continue;
        heads_.push_back({in.front().t, in.data(), in.data() + in.size()});
        total += in.size();
      }
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
        *o++ = Chunk{cluster::send_departure(cursor, hd.t, c_h),
                     hd.next->wire};
        if (++hd.next == hd.end) {
          heads_.erase(heads_.begin() + static_cast<std::ptrdiff_t>(best));
        } else {
          hd.t = hd.next->t;
        }
      }
      for (std::uint32_t e = f_.first[r]; e < f_.first[r + 1]; ++e) {
        release(sched_[f_.child[e]]);
      }
      sched_[r] = std::move(out);
    }
    // Root delivery: own contribution and every announce processed (R[0]),
    // plus the last chunk of every child stream processed.
    sim::Time done = R_[0];
    for (std::uint32_t e = f_.first[0]; e < f_.first[1]; ++e) {
      const std::uint32_t c = f_.child[e];
      arrive(c, c_h);
      if (!sched_[c].empty()) done = std::max(done, sched_[c].back().t);
      release(sched_[c]);
    }
    return done;
  }

  /// Rewrites child c's departures into processed times at its parent:
  /// arrival (clamped behind c's RTS and its previous chunk, per-channel
  /// FIFO) plus the chunk handle.
  void arrive(std::uint32_t c, sim::Time c_h) {
    sim::Time last_arrival = rts_arr_[c];
    for (Chunk& ch : sched_[c]) {
      last_arrival = cluster::fifo_arrival(ch.t + ch.wire, last_arrival);
      ch.t = last_arrival + c_h;
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
  const Fabric f_;
  const std::vector<std::uint32_t> sz_;  // subtree sizes
  std::vector<sim::Time> A_, R_, rts_arr_, G_, U_;
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

/// Replay of a scatter of `payload_bytes` per rank on one fabric: the time
/// the last rank's own part reaches its handler (see collective_scatter).
sim::Time scatter_replay(const cluster::CostModel& costs,
                         const comm::Topology& topo, CollectiveProtocol proto,
                         std::size_t payload_bytes) {
  const Fabric f(topo);
  const std::vector<std::uint32_t> sz = f.subtree_sizes();
  const sim::Time h = costs.iccl_msg_handle;
  const double S = static_cast<double>(payload_bytes);
  sim::Time worst = 0;

  if (proto == CollectiveProtocol::Eager) {
    // Exact replay of handle_scatter: start[r] is when rank r's handler
    // runs (its whole subtree frame processed); its own part is delivered
    // in that same event. Each child's frame departs through r's cursor,
    // whose quantum is the handle plus the copy of that child's part.
    std::vector<sim::Time> start(f.n, 0);
    for (std::uint32_t r = 0; r < f.n; ++r) {
      sim::Time cursor = 0;
      for (std::uint32_t e = f.first[r]; e < f.first[r + 1]; ++e) {
        const std::uint32_t c = f.child[e];
        const auto ranks = static_cast<double>(sz[c]);
        const sim::Time q = h + costs.eager_copy_cost(ranks * S);
        start[c] = cluster::send_departure(cursor, start[r], q) +
                   costs.wire_time(kFrameBytes + ranks * (kEntryBytes + S)) +
                   q;
        worst = std::max(worst, start[c]);
      }
    }
    return worst;
  }

  // Hypothetical rendezvous scatter. Each link carries the child's whole
  // subtree stream, laid out subtree-major: the child's own entry first,
  // then each grandchild segment in children order (recursively). A relay
  // cut-through-forwards an outbound chunk the moment the inbound chunk
  // covering its byte range retires; the root holds everything at t=0.
  const DownHandshake hs(costs, f);
  const std::uint32_t C = costs.iccl_rndv_chunk_bytes;
  const sim::Time c_h = costs.iccl_chunk_handle;
  const double entry = kEntryBytes + S;
  auto stream_bytes = [&](std::uint32_t r) {
    return static_cast<double>(sz[r]) * entry;
  };
  auto chunks_of = [&](double bytes) {
    return static_cast<std::uint32_t>(
        (static_cast<std::size_t>(bytes) + C - 1) / C);
  };
  // P[r][k]: inbound chunk k retired at r; last_arrival[e]: edge e's FIFO
  // clamp, from its RTS on. r's own entry (stream bytes [0, entry), the
  // head of its inbound stream) reaches its handler with the chunk that
  // covers it.
  std::vector<std::vector<sim::Time>> P(f.n);
  std::vector<sim::Time> last_arrival = hs.rts_arrival;
  std::vector<std::uint32_t> m_of;
  std::vector<double> off_of;
  const auto head = static_cast<std::size_t>((entry - 1.0) /
                                             static_cast<double>(C));
  for (std::uint32_t r = 0; r < f.n; ++r) {
    const std::uint32_t e0 = f.first[r];
    const std::uint32_t e1 = f.first[r + 1];
    if (e0 == e1) continue;
    // Offset of each child's segment within r's own inbound stream (own
    // entry first, then prior siblings' segments). The root reads from the
    // caller's buffer: every byte is available at t=0.
    m_of.clear();
    off_of.clear();
    double seg_off = entry;
    std::uint32_t m_max = 0;
    for (std::uint32_t e = e0; e < e1; ++e) {
      off_of.push_back(seg_off);
      m_of.push_back(chunks_of(stream_bytes(f.child[e])));
      m_max = std::max(m_max, m_of.back());
      seg_off += stream_bytes(f.child[e]);
      P[f.child[e]].assign(m_of.back(), 0);
    }
    // Serialized chunk cursor, round-robin across the children.
    sim::Time cursor = 0;
    for (std::uint32_t j = 0; j < m_max; ++j) {
      for (std::uint32_t e = e0; e < e1; ++e) {
        const std::size_t i = e - e0;
        if (j >= m_of[i]) continue;
        const double B = stream_bytes(f.child[e]);
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
        const sim::Time ready = std::max(avail, hs.cts_done[r]);
        last_arrival[e] = cluster::fifo_arrival(
            cluster::send_departure(cursor, ready, c_h) +
                costs.wire_time(kFrameBytes + kEntryBytes + chunk_bytes),
            last_arrival[e]);
        P[f.child[e]][j] = last_arrival[e] + c_h;
      }
    }
    for (std::uint32_t e = e0; e < e1; ++e) {
      const std::vector<sim::Time>& in = P[f.child[e]];
      worst = std::max(worst, in[std::min(head, in.size() - 1)]);
    }
  }
  return worst;
}

}  // namespace

comm::Topology PerfModel::resolved_topology(const comm::TopologySpec& spec,
                                            int n) const {
  comm::TopologySpec resolved = spec;
  if (resolved.kind == comm::TopologyKind::KAry && resolved.arity == 0) {
    resolved.arity = static_cast<std::uint32_t>(costs_.rm_launch_fanout);
  }
  return comm::Topology(resolved, static_cast<std::uint32_t>(std::max(n, 0)));
}

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
  return seconds(
      scatter_replay(costs_, resolved_topology(spec, n), proto, payload_bytes));
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
