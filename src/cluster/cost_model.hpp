// cost_model.hpp - calibrated cost constants for the simulated cluster.
//
// Every time charge in the simulation comes from this struct, so the whole
// calibration story lives in one place. Defaults are fit to the published
// measurement points from the paper's Atlas cluster (see DESIGN.md §5):
//
//   * serial rsh launch:   0.77 s @ 4 nodes, 60.8 s @ 256 nodes (~237 ms/node)
//   * rsh hard failure:    front end cannot fork ~512 helpers
//   * launchAndSpawn:      < 1 s @ 128 nodes / 1024 tasks
//   * LaunchMON overhead:  18 ms tracing + 12 ms other, scale-independent
//   * STAT via LaunchMON:  0.46 s @ 4, 3.57 s @ 256, 5.6 s @ 512 daemons
//   * Jobsnap:             < 1.5 s @ 512 daemons, 2.92 s @ 1024 daemons
//   * DPCL APAI access:    ~34 s constant; LaunchMON APAI ~0.6 s constant
#pragma once

#include <algorithm>
#include <cstdint>

#include "simkernel/time.hpp"

namespace lmon::cluster {

struct CostModel {
  using Time = sim::Time;

  // --- process management -------------------------------------------------
  /// fork() on a compute/front-end node.
  Time fork_cost = sim::us(250);
  /// exec() fixed cost (page-table setup, loader) ...
  Time exec_base_cost = sim::us(600);
  /// ... plus per-MB of binary image mapped in.
  Time exec_per_mb = sim::us(15);
  /// Relative jitter applied to fork/exec (sigma as a fraction of the mean).
  double proc_jitter = 0.05;
  /// Scheduling delay before a newly runnable process first executes.
  Time sched_latency = sim::us(120);

  // --- network -------------------------------------------------------------
  /// One-way small-message latency between distinct nodes (IB-like, but with
  /// kernel TCP stacks as LMONP uses TCP/IP).
  Time net_latency = sim::us(45);
  /// One-way latency between processes on the same node (loopback).
  Time local_latency = sim::us(8);
  /// Payload bandwidth, bytes per second (~1.2 GB/s effective).
  double bandwidth_bytes_per_sec = 1.2e9;
  /// Relative latency jitter.
  double net_jitter = 0.08;
  /// Extra cost to establish a connection (SYN/ACK handshake + accept(2)).
  Time connect_cost = sim::us(180);

  // --- /proc and local introspection ----------------------------------------
  /// Reading one process's /proc state (open/read/parse of several files).
  Time proc_read_cost = sim::us(350);

  // --- tracing (ptrace-like) ------------------------------------------------
  /// Attaching to a process as a tracer.
  Time trace_attach_cost = sim::ms(2.5);
  /// Kernel-side cost of delivering one debug event to the tracer.
  Time trace_event_latency = sim::us(80);
  /// Tracer-side cost to read target memory: base ...
  Time mem_read_base = sim::us(60);
  /// ... plus per-KB transferred via the debug interface.
  Time mem_read_per_kb = sim::us(6);

  // --- rsh substrate ---------------------------------------------------------
  /// Client-side fork+exec of the rsh helper binary.
  Time rsh_client_fork = sim::ms(3.0);
  /// Connection setup + authentication + remote shell spawn. Dominates the
  /// serial ad hoc launch: ~230 ms per target reproduces 60.8 s @ 256 nodes.
  Time rsh_session_cost = sim::ms(230);
  /// Remote side: rshd forking the requested command.
  Time rshd_spawn_cost = sim::ms(4.0);
  /// Max concurrent rsh helper children one process may hold before fork()
  /// fails with EAGAIN (models the per-user process/fd limit that makes the
  /// ad hoc MRNet launch "consistently fail" at 512 nodes in the paper).
  int rsh_fork_limit = 500;
  /// Whether compute nodes run remote-access services at all (BG/L and the
  /// Cray XT3 "do not support direct remote access services", paper §2).
  bool has_remote_access = true;

  // --- resource manager -------------------------------------------------------
  /// Controller-side handling of one RPC (allocate, job query, ...).
  Time rm_controller_rpc = sim::ms(1.2);
  /// Scheduling/allocating a job's node set (controller-side credential and
  /// reservation materialization; Moab has already made the policy decision).
  Time rm_allocate_cost = sim::ms(150);
  /// Node-daemon handling of a (tree-forwarded) launch request.
  Time rm_slurmd_handle = sim::us(400);
  /// Node-daemon per-task spawn bookkeeping (credential checks, cgroup-ish
  /// setup), in addition to fork/exec of the task itself.
  Time rm_task_setup = sim::ms(1.1);
  /// Launcher-side per-node bookkeeping when building the launch tree/
  /// proctable (credential per node, hostlist processing; the dominant
  /// linear term in the RM's launch cost).
  Time rm_launcher_per_node = sim::us(1100);
  /// Launcher fixed startup work before contacting the controller.
  Time rm_launcher_startup = sim::ms(18);
  /// Tree fan-out used by the RM's scalable launch (SLURM default-ish).
  int rm_launch_fanout = 32;
  /// Quadratic RM term (ns per node^2) that models the sub-optimal scaling
  /// the paper observed past ~512 daemons (Jobsnap's last doubling).
  double rm_quadratic_ns_per_node2 = 900.0;
  /// Number of debug events a well-designed RM launcher produces while being
  /// traced, independent of scale (paper: SLURM has no events that grow with
  /// scale; total tracing cost 18 ms).
  int rm_debug_events = 12;

  // --- LaunchMON engine ---------------------------------------------------------
  /// Average cost of one engine event-handler invocation (paper model:
  /// tracing cost = #debug events x avg handler cost = 18 ms total).
  Time engine_handler_cost = sim::ms(1.5);
  /// Scale-independent engine/front-end bookkeeping ("all other LaunchMON
  /// costs", 12 ms in the paper).
  Time engine_fixed_cost = sim::ms(12);

  // --- daemon fabric / ICCL -------------------------------------------------------
  /// Per-daemon cost to initialize the RM-provided bootstrap fabric endpoint.
  Time fabric_endpoint_init = sim::us(500);
  /// Per-message handling cost inside a daemon's collective layer (receive,
  /// decode, forward bookkeeping); also serializes fan-out sends.
  Time iccl_msg_handle = sim::us(600);
  /// Eager-protocol per-KB payload copy: the parent memcpys the payload into
  /// each child's send buffer (serialized, so it stretches the fan-out
  /// quantum), and the receiver copies it out of the bounce buffer before
  /// handling. ~500 MB/s effective for the double-copy TCP path.
  Time iccl_eager_copy_per_kb = sim::us(2.0);
  /// Rendezvous per-chunk fixed cost on each side (post one pre-registered
  /// zero-copy chunk / retire one). No per-byte CPU term: the payload is
  /// never staged through a bounce buffer once the CTS arrived.
  Time iccl_chunk_handle = sim::us(60);
  /// Rendezvous pipeline chunk size.
  std::uint32_t iccl_rndv_chunk_bytes = 64 * 1024;
  /// Default eager->rendezvous switch threshold (payload bytes). Deliberately
  /// conservative so stock sessions keep the calibrated eager path; tools
  /// tune it per session (SpawnConfig::rndv) with
  /// core::PerfModel::collective_crossover() as the guide.
  std::uint32_t iccl_rndv_threshold_bytes = 1024 * 1024;

  // --- TBON --------------------------------------------------------------------------
  /// Per-child registration work at a TBON node accepting a new link
  /// (accept, peer validation, routing-table update). Serialized at the
  /// parent, so a 1-deep root pays it once per back end - the "MRNet
  /// handshaking protocol" share of STAT's startup in Fig. 6.
  Time tbon_register_cost = sim::ms(3.0);

  // --- tool-side work ---------------------------------------------------------------
  /// STAT: walking one task's call stack (third-party stackwalk on a
  /// stopped process).
  Time stackwalk_cost = sim::ms(1.2);

  // --- DPCL baseline ----------------------------------------------------------------
  /// Full binary parse throughput of the DPCL instrumentation engine. The
  /// paper's O|SS baseline parses the RM launcher binary completely; with a
  /// ~110 MB srun image this yields the ~33 s constant in Table 1.
  Time dpcl_parse_per_mb = sim::ms(300);
  /// DPCL super-daemon session setup (authentication, connection).
  Time dpcl_session_setup = sim::ms(450);

  /// Binary image sizes (MB) used for exec and parse costs.
  double tool_daemon_image_mb = 4.0;
  double launcher_image_mb = 110.0;
  double app_image_mb = 24.0;

  // --- cost terms: the simulation charges them, core::PerfModel replays them
  /// One-way wire time of a `bytes` message before jitter: link latency
  /// (loopback within one node) plus serialization, truncated to whole ns.
  [[nodiscard]] Time wire_time(double bytes, bool same_node = false) const {
    return (same_node ? local_latency : net_latency) +
           static_cast<Time>(bytes / bandwidth_bytes_per_sec * 1e9);
  }
  /// The eager copy of `bytes` through a bounce buffer (one side):
  /// iccl_eager_copy_per_kb scaled to size, truncated to whole ns.
  [[nodiscard]] Time eager_copy_cost(double bytes) const {
    return static_cast<Time>(static_cast<double>(iccl_eager_copy_per_kb) *
                             bytes / 1024.0);
  }

  /// Returns a model with all jitter removed (exact analytic expectations);
  /// used by the model-validation tests.
  [[nodiscard]] CostModel deterministic() const {
    CostModel m = *this;
    m.proc_jitter = 0.0;
    m.net_jitter = 0.0;
    return m;
  }

  /// BlueGene/L-like platform profile (paper §4: "We have also ported
  /// LaunchMON to BlueGene/L ... LaunchMON has similar overheads on it.
  /// However, we found that the time for spawning the job tasks and tool
  /// daemons (i.e., T(job) and T(daemon)) by mpirun, the RM on that system,
  /// were significantly higher."). The LaunchMON-side constants are
  /// untouched - that platform independence is the point - while the
  /// mpirun-side launch costs rise and direct remote access is absent
  /// (BG/L compute nodes run no rshd; ad hoc launching is impossible, not
  /// merely slow).
  [[nodiscard]] static CostModel bluegene_like() {
    CostModel m;
    m.rm_launcher_startup = sim::ms(120);      // mpirun front-end cost
    m.rm_launcher_per_node = sim::us(4500);    // slower per-node bring-up
    m.rm_task_setup = sim::ms(4.0);            // CIOD-mediated task spawn
    m.rm_allocate_cost = sim::ms(400);         // partition boot amortized
    m.rm_launch_fanout = 8;                    // shallower service network
    m.has_remote_access = false;               // compute nodes run no rshd
    return m;
  }
};

/// Per-direction FIFO on one link (TCP order): a message never lands before,
/// or in the same ns as, the one sent ahead of it, so an `arrival` at or
/// before the link's `last` arrival lands 1 ns after it instead.
[[nodiscard]] constexpr sim::Time fifo_arrival(sim::Time arrival,
                                               sim::Time last) {
  return arrival <= last ? last + 1 : arrival;
}

/// One serialized sender (a daemon's send CPU): a send departs once it is
/// `ready` and the sender is free at `cursor`, and holds the sender for
/// `occupancy`, which pushes the next send back. Returns the departure and
/// advances `cursor` past it. Sends ready together at a fresh cursor leave
/// 0, 1, ..., k-1 occupancies after `ready`.
constexpr sim::Time send_departure(sim::Time& cursor, sim::Time ready,
                                   sim::Time occupancy) {
  const sim::Time depart = std::max(cursor, ready);
  cursor = depart + occupancy;
  return depart;
}

}  // namespace lmon::cluster
