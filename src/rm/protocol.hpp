// protocol.hpp - the resource manager's internal control protocol.
//
// Wire format for controller<->launcher and launcher<->node-daemon traffic.
// The tree-launch request/ack pair is the RM's scalable launch mechanism
// (paper §2: "RMs provide native interfaces and runtime services that can
// scalably launch tool daemons on a large number of nodes").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/message.hpp"
#include "comm/topology.hpp"
#include "common/bytes.hpp"
#include "rm/types.hpp"

namespace lmon::rm {

enum class MsgType : std::uint32_t {
  AllocReq = 1,
  AllocResp,
  JobInfoReq,
  JobInfoResp,
  TreeLaunchReq,
  TreeLaunchAck,
  TreeKillReq,
  TreeKillAck,
  LaunchDone,   ///< co-spawn launcher -> tool engine report
  KillDaemons,  ///< tool engine -> co-spawn launcher
  JobFreeReq,
};

/// Peeks the type tag of an encoded RM message.
std::optional<MsgType> peek_type(const cluster::Message& msg);

// --- controller RPCs ---------------------------------------------------------

struct AllocReq {
  std::uint32_t nnodes = 0;
  /// Allocate from the middleware partition (nodes reserved for TBON
  /// communication daemons) instead of the compute partition.
  bool middleware = false;
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<AllocReq> decode(const cluster::Message& m);
};

/// The body AllocResp and JobInfoResp share: a verdict, the job and its
/// nodes.
struct JobNodes {
  bool ok = false;
  std::string error;
  JobId jobid = kInvalidJob;
  std::vector<AllocatedNode> nodes;
};

struct AllocResp : JobNodes {
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<AllocResp> decode(const cluster::Message& m);
};

struct JobInfoReq {
  JobId jobid = kInvalidJob;
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<JobInfoReq> decode(const cluster::Message& m);
};

struct JobInfoResp : JobNodes {
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<JobInfoResp> decode(const cluster::Message& m);
};

struct JobFreeReq {
  JobId jobid = kInvalidJob;
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<JobFreeReq> decode(const cluster::Message& m);
};

// --- tree launch --------------------------------------------------------------

enum class LaunchMode : std::uint8_t { Tasks = 0, Daemons = 1 };

/// Fabric bootstrap parameters handed to every spawned tool daemon; the
/// RM-provided equivalent of PMGR/SLURM's communication setup, consumed by
/// the LaunchMON BE/MW APIs via daemon argv.
struct FabricSpec {
  cluster::Port port = 0;        ///< per-session daemon listen port
  std::uint32_t fanout = 2;      ///< tree degree (fabric arity + launch fan-out)
  std::uint32_t total = 0;       ///< number of daemons in the session
  std::string fe_host;           ///< tool front end address (master connects)
  std::uint16_t fe_port = 0;
  std::string session;           ///< session cookie
  /// Fabric tree shape; KAry uses `fanout` as its arity.
  comm::TopologyKind topo_kind = comm::TopologyKind::KAry;
  /// ICCL eager->rendezvous switch threshold (bytes; 0 = this machine's
  /// costs).
  std::uint32_t rndv_threshold = 0;
  /// Self-healing daemon trees (reparent orphans onto live ancestors).
  bool heal = false;
  /// Orphan-reattach grace window (ms); 0 = the ICCL default.
  std::uint32_t heal_grace_ms = 0;
  /// Virtual-session admission bound for the daemon tree; 0 = default.
  std::uint32_t max_sessions = 0;

  [[nodiscard]] comm::TopologySpec topology() const {
    return comm::TopologySpec{topo_kind, fanout};
  }
};

/// The allocation's hosts in index order, in their wire form: a u32 count,
/// then one length-prefixed string per host. The launcher packs it once per
/// launch and every hop's request shares that one immutable buffer; a frame
/// carries it as its Message::view, at the tail of the wire image, so the
/// frame costs exactly what it would with the list copied in.
class HostList {
 public:
  /// The empty list (wire form: a zero count).
  HostList();
  /// Packs the hosts of `nodes`, in order.
  static HostList pack(const std::vector<AllocatedNode>& nodes);
  /// Accepts a received wire form only when the count, every length prefix
  /// and the end of the last host all agree with the bytes. Validates each
  /// view once (LastView), so every hop of a launch parsing the one host
  /// buffer the launcher packed costs O(1) after the first.
  static std::optional<HostList> parse(ByteSlice wire);

  [[nodiscard]] std::uint32_t size() const noexcept { return count_; }
  [[nodiscard]] const ByteSlice& wire() const noexcept { return wire_; }

  /// Calls f(std::string_view host) for every host, in order.
  template <typename F>
  void for_each(F&& f) const {
    ByteReader r(wire_.span());
    r.skip(4);
    for (std::uint32_t i = 0; i < count_; ++i) f(*r.str_view());
  }

 private:
  HostList(ByteSlice wire, std::uint32_t count)
      : wire_(std::move(wire)), count_(count) {}

  ByteSlice wire_;
  std::uint32_t count_ = 0;
};

struct TreeLaunchReq {
  JobId jobid = kInvalidJob;
  std::uint32_t seq = 0;
  LaunchMode mode = LaunchMode::Tasks;
  std::string executable;
  std::vector<std::string> extra_args;
  std::uint32_t tasks_per_node = 1;
  /// Subtree of allocated nodes this request covers; entry 0 is handled
  /// locally by the receiving node daemon, the rest are fanned out.
  std::vector<AllocatedNode> nodes;
  /// Full allocation host list in index order: daemons locate their fabric
  /// parent in it, and tasks take its size as the job's node count.
  HostList hosts;
  FabricSpec fabric;  ///< daemon mode only

  [[nodiscard]] cluster::Message encode() const;
  /// The frame of this request narrowed to `subtree` under `sub_seq`, as a
  /// node daemon forwards it to a child; it shares this request's hosts.
  [[nodiscard]] cluster::Message encode_subtree(
      std::span<const AllocatedNode> subtree, std::uint32_t sub_seq) const;
  static std::optional<TreeLaunchReq> decode(const cluster::Message& m);
};

struct TreeLaunchAck {
  std::uint32_t seq = 0;
  bool ok = false;
  std::string error;
  std::vector<TaskDesc> entries;
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<TreeLaunchAck> decode(const cluster::Message& m);
};

struct TreeKillReq {
  JobId jobid = kInvalidJob;
  std::uint32_t seq = 0;
  LaunchMode mode = LaunchMode::Daemons;
  std::string session;  ///< daemon-mode: kill only this session's daemons
  std::vector<AllocatedNode> nodes;
  [[nodiscard]] cluster::Message encode() const;
  /// The frame of this request narrowed to `subtree` under `sub_seq`.
  [[nodiscard]] cluster::Message encode_subtree(
      std::span<const AllocatedNode> subtree, std::uint32_t sub_seq) const;
  static std::optional<TreeKillReq> decode(const cluster::Message& m);
};

struct TreeKillAck {
  std::uint32_t seq = 0;
  bool ok = false;
  std::uint32_t killed = 0;
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<TreeKillAck> decode(const cluster::Message& m);
};

// --- co-spawn launcher <-> engine -------------------------------------------------

struct LaunchDone {
  bool ok = false;
  std::string error;
  JobId jobid = kInvalidJob;
  std::vector<TaskDesc> daemons;
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<LaunchDone> decode(const cluster::Message& m);
};

struct KillDaemons {
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<KillDaemons> decode(const cluster::Message& m);
};

// --- shared encode helpers (used by APAI, tests) -------------------------------------

void write_task_desc(ByteWriter& w, const TaskDesc& t);
std::optional<TaskDesc> read_task_desc(ByteReader& r);
/// A u32 count and that many task descriptors.
std::optional<std::vector<TaskDesc>> read_task_descs(ByteReader& r);
void write_alloc_node(ByteWriter& w, const AllocatedNode& n);
std::optional<AllocatedNode> read_alloc_node(ByteReader& r);

}  // namespace lmon::rm
