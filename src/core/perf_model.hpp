// perf_model.hpp - the analytic launchAndSpawn model of paper §4, extended
// to a per-strategy family (§2 ablation, Figures 3 and 4).
//
// The paper decomposes the critical path e0..e11 into regions:
//   Region A (RM dominant): T(job), T(daemon)+T(setup), T(collective),
//                           plus LaunchMON's tracing cost
//   Region B: RPDTAB fetching (linear in task count)
//   Region C: FE<->master handshaking (linear in daemon count)
//   Other:    scale-independent LaunchMON costs
//
// Only T(daemon) depends on *how* the daemons reach the nodes, so the model
// family shares every calibration constant and swaps that one term:
//
//   rm-bulk     the RM's native tree launch: per-node bookkeeping plus a
//               depth-bounded forwarding chain - the ~flat Figure 3 curve;
//   serial-rsh  one blocking rsh session per node, fully serialized at the
//               front end: linear in n with a hard fork-limit failure wall;
//   tree-rsh    recursive launch agents; each agent still serializes its
//               k child sessions, so the critical path is depth-dominated
//               (O(k log_k n) sessions instead of n).
//
// PerfModel computes each term from the CostModel constants the same way
// the simulated implementation spends them, so the benches can print
// modeled vs measured stacks, the model-validation tests can assert
// agreement per strategy, and crossover() can solve for the node counts
// where the strategies trade places (the paper's Figure 4 story).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "cluster/cost_model.hpp"
#include "comm/launch_strategy.hpp"
#include "comm/topology.hpp"

namespace lmon::core {

/// How the ICCL fans a broadcast payload down the fabric tree (iccl.cpp):
/// eager sends each child one full-payload frame (serialized per-child
/// copies, store-and-forward per level); rendezvous runs an RTS/CTS
/// handshake and then pipelines fixed-size zero-copy chunks, so a relay
/// forwards chunk j while its parent still streams j+1.
enum class CollectiveProtocol : std::uint8_t {
  Eager = 0,
  Rendezvous = 1,
};

[[nodiscard]] std::string_view to_string(CollectiveProtocol proto);

struct LaunchSpawnPrediction {
  // All values in (simulated) seconds.
  double t_job = 0;         ///< Region A: spawning the job tasks
  double t_daemon = 0;      ///< Region A: spawning the tool daemons
  double t_setup = 0;       ///< Region A: inter-daemon fabric setup
  double t_collective = 0;  ///< Region A: handshake bcast/gather collectives
  double tracing = 0;       ///< Region A: LaunchMON tracing cost
  double rpdtab_fetch = 0;  ///< Region B
  double handshake = 0;     ///< Region C
  double other = 0;         ///< scale-independent LaunchMON costs

  [[nodiscard]] double total() const {
    return t_job + t_daemon + t_setup + t_collective + tracing +
           rpdtab_fetch + handshake + other;
  }
  /// LaunchMON's own share (everything but the RM terms), as the paper
  /// reports "about 5.2% of that total time" at 128 nodes.
  [[nodiscard]] double launchmon_share() const {
    return (tracing + rpdtab_fetch + handshake + other) / total();
  }
};

class PerfModel {
 public:
  /// `fanout` is the RM launch/fabric tree degree in effect.
  PerfModel(const cluster::CostModel& costs, std::uint32_t fanout);

  /// Predicts launchAndSpawn for `ndaemons` nodes with `tasks_per_daemon`
  /// MPI tasks per node (the paper sweeps 16..128 daemons at 8 tasks each).
  /// Legacy single-strategy entry: rm-bulk over a k-ary fabric of this
  /// model's fanout.
  [[nodiscard]] LaunchSpawnPrediction predict(int ndaemons,
                                              int tasks_per_daemon) const;

  /// Per-strategy entry point: predicts the full launchAndSpawn for
  /// `strategy` bootstrapping `n_nodes` daemons over a `fabric`-shaped
  /// tree, with `procs_per_node` MPI tasks per node. A fabric arity of 0
  /// resolves to the cost model's RM fan-out, mirroring the FE API.
  /// `rndv_threshold_bytes` is the session's wire threshold (0 = the cost
  /// model's platform default): when the handshake RPDTAB payload reaches
  /// it, T(collective) is predicted with the rendezvous broadcast replay
  /// instead of the eager closed form - so auto-tuned thresholds and the
  /// full-scale residual gates see the protocol the fabric will actually
  /// run.
  [[nodiscard]] LaunchSpawnPrediction predict(
      comm::LaunchStrategyKind strategy, const comm::TopologySpec& fabric,
      int n_nodes, int procs_per_node,
      std::uint32_t rndv_threshold_bytes = 0) const;

  /// True when the strategy cannot complete at this scale at all: the
  /// serial front end holds one rsh helper child per node, so past the
  /// per-user fork limit the launch "consistently fails" (paper §5.2);
  /// and on machines without remote-access services (BlueGene-class I/O
  /// node kernels run no rshd) both rsh flavors fail at any scale.
  [[nodiscard]] bool predicts_failure(comm::LaunchStrategyKind strategy,
                                      int n_nodes) const;

  /// Smallest node count in [2, max_nodes] from which `challenger` stays
  /// strictly cheaper than `incumbent` (total launchAndSpawn time), or
  /// nullopt if it never overtakes in range. This solves the paper's
  /// Figure 4 questions: where tree-rsh overtakes serial-rsh, and where
  /// rm-bulk wins outright. The scan evaluates the model per node count
  /// (each O(n)), so keep max_nodes in the thousands.
  [[nodiscard]] std::optional<int> crossover(
      comm::LaunchStrategyKind challenger,
      comm::LaunchStrategyKind incumbent, const comm::TopologySpec& fabric,
      int procs_per_node, int max_nodes = 4096) const;

  /// Tree depth of the RM launch / fabric tree over n nodes (contiguous
  /// chunk splitting with this model's degree: level l reaches ~k^l nodes).
  [[nodiscard]] int depth(int n) const;

  /// Fabric-tree depth as a closed form - comm::Topology::depth() walks
  /// every rank, too slow for crossover scans. Must mirror the heap
  /// k-ary / binomial / flat shapes in comm/topology.cpp (a unit test
  /// pins the two together).
  [[nodiscard]] static int fabric_depth(const comm::TopologySpec& spec,
                                        int n);

  /// Serialized message quanta on the fabric's collective critical path.
  /// A parent's fan-out sends serialize (one iccl_msg_handle each, in
  /// rank order), but levels pipeline: a child starts forwarding the
  /// moment its own copy arrives, while its parent is still serving later
  /// siblings. The critical path is therefore the max over ranks of the
  /// summed sibling positions along the root path - not depth x degree.
  [[nodiscard]] static double fabric_pipeline_quanta(
      const comm::TopologySpec& spec, int n);

  /// Approximate encoded RPDTAB entry size (bytes) for payload terms.
  static constexpr double kRpdtabEntryBytes = 44.0;

  // --- collective protocol family (eager vs rendezvous) ---------------------
  /// Fleet-wide broadcast latency (seconds, root issue to last delivery)
  /// for `payload_bytes` over an n-rank fabric of shape `spec` under
  /// `proto`. Exact per-rank replay of the Iccl event schedule (frame
  /// overheads, serialized fan-out/chunk cursors, per-channel FIFO), so
  /// bench_ablation_iccl can gate model-vs-measured residuals tightly.
  /// O(n * chunks) per call - keep n in the thousands.
  [[nodiscard]] double collective_bcast(CollectiveProtocol proto,
                                        const comm::TopologySpec& spec, int n,
                                        std::size_t payload_bytes) const;

  /// Smallest payload (bytes) in [1 KiB, max_payload] from which rendezvous
  /// never loses to eager again on this fabric, or nullopt when eager still
  /// wins at max_payload. Probes both endpoints of every chunk segment
  /// (both latency curves are affine within a segment, and the gap only
  /// dips where the chunk count steps up) and interpolates the zero
  /// crossing after the last eager win in closed form - ~2 evaluations per
  /// chunk of max_payload. This is the analytic answer to "where should a
  /// session set SpawnConfig::rndv_threshold_bytes".
  [[nodiscard]] std::optional<std::size_t> collective_crossover(
      const comm::TopologySpec& spec, int n,
      std::size_t max_payload = 16u << 20) const;

  /// Fleet-wide gather latency (seconds) for `payload_bytes` contributed
  /// *per rank* over an n-rank fabric of shape `spec` under `proto`,
  /// measured the way the fig5/fig6 gather sweeps measure it: t=0 is the
  /// root issuing an empty release broadcast (the go signal that sequences
  /// bench rounds), each rank contributes the moment its release lands, and
  /// the clock stops when the root delivers the sorted contributions.
  /// Exact per-rank replay of the Iccl upstream schedule: eager replays the
  /// whole-subtree GatherUp frames with their receive-side copy-out;
  /// rendezvous replays the GatherRts announce wave, the per-child CTS
  /// clearances and every node's serialized chunk cursor with cut-through
  /// relay and per-channel FIFO. O(n * chunks * depth) per call.
  [[nodiscard]] double collective_gather(CollectiveProtocol proto,
                                         const comm::TopologySpec& spec,
                                         int n,
                                         std::size_t payload_bytes) const;

  /// Gather twin of collective_crossover(): smallest *per-rank* payload in
  /// [1 KiB, max_payload] from which the rendezvous gather never loses to
  /// eager again on this fabric, nullopt when eager still wins at max.
  /// Same chunk-segment probe geometry and closed-form interpolation.
  [[nodiscard]] std::optional<std::size_t> collective_gather_crossover(
      const comm::TopologySpec& spec, int n,
      std::size_t max_payload = 16u << 20) const;

  /// Fleet-wide scatter latency (seconds) for `payload_bytes` destined to
  /// *each rank* over an n-rank fabric of shape `spec`. t=0 is the root's
  /// Iccl::scatter call; the clock stops when the last rank's own part is
  /// delivered to its scatter handler. Eager is an exact replay of
  /// handle_scatter: every node partitions its inbound frame by child
  /// subtree, pays the serialized per-child quantum (handle + copy of the
  /// part), ships one whole-subtree frame per child, and the receiver pays
  /// handle + copy-out of the full frame before its own handler runs.
  /// Rendezvous is a *hypothetical* protocol the live fabric does not
  /// implement (scatter payloads ride eager frames at every threshold):
  /// RTS/CTS per link, the per-child subtree stream laid out subtree-major
  /// (own entry first, then each child segment), chunks round-robined
  /// through the parent's serialized cursor with per-link FIFO, and
  /// cut-through relay the moment the inbound chunk covering an outbound
  /// range retires. bench_ablation_iccl sweeps this model to report
  /// whether a rendezvous scatter would ever pay off.
  [[nodiscard]] double collective_scatter(CollectiveProtocol proto,
                                          const comm::TopologySpec& spec,
                                          int n,
                                          std::size_t payload_bytes) const;

  /// Scatter twin of collective_crossover(): smallest *per-rank* part in
  /// [1 KiB, max_payload] from which the hypothetical rendezvous scatter
  /// never loses to eager again, nullopt when eager still wins at max.
  [[nodiscard]] std::optional<std::size_t> collective_scatter_crossover(
      const comm::TopologySpec& spec, int n,
      std::size_t max_payload = 16u << 20) const;

 private:
  [[nodiscard]] double seconds(sim::Time t) const {
    return sim::to_seconds(t);
  }
  /// The fabric a collective replay walks: arity 0 resolves to the cost
  /// model's RM fan-out, mirroring the FE API.
  [[nodiscard]] comm::Topology resolved_topology(
      const comm::TopologySpec& spec, int n) const;
  [[nodiscard]] double spawn_cost(double image_mb) const;
  [[nodiscard]] double connect_cost() const;
  [[nodiscard]] double transfer_cost(double bytes) const;
  [[nodiscard]] int chunk_depth(int n, std::uint32_t fanout) const;

  // --- per-strategy T(daemon) ----------------------------------------------
  /// One level of the RM's tree-forwarded launch (shared by T(job) and
  /// the rm-bulk T(daemon), which ride the same machinery).
  [[nodiscard]] double rm_launch_hop(double n) const;
  /// Launcher-side per-node bookkeeping incl. the super-linear term.
  [[nodiscard]] double rm_bookkeeping(double n) const;
  [[nodiscard]] double rm_bulk_daemons(int n, std::uint32_t launch_fanout)
      const;
  [[nodiscard]] double serial_rsh_daemons(int n) const;
  [[nodiscard]] double tree_rsh_daemons(int n, std::uint32_t launch_fanout)
      const;
  /// Serialized front-of-session cost (helper fork + session setup); the
  /// part of one rsh invocation that cannot overlap within one process.
  [[nodiscard]] double rsh_serialized_cost() const;
  /// Post-serialization tail: connect to rshd, request, remote spawn.
  [[nodiscard]] double rsh_tail_cost(double req_bytes,
                                     double image_mb) const;

  cluster::CostModel costs_;
  std::uint32_t fanout_;
};

}  // namespace lmon::core
