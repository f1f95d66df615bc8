// topology.hpp - tree-based overlay network topology (MRNet-like).
//
// A topology describes the TBON process tree: the tool front end at the
// root, optional internal communication daemons on extra nodes, and the
// tool's back-end daemons at the leaves. The paper's STAT evaluation uses a
// "1-deep" (1-to-N) topology: every back end is a direct child of the FE.
//
// A Topology is an immutable value: its nodes, their validation and an index
// of children and back ends are built once and shared by every copy. The
// packed form is broadcast to every daemon of a launch, and unpack() of that
// one broadcast view decodes it once for all of them (see unpack()).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/types.hpp"
#include "comm/topology.hpp"
#include "common/bytes.hpp"

namespace lmon::tbon {

struct TopoNode {
  std::string host;
  cluster::Port port = 0;  ///< listening port (0 for leaves; they dial out)
  std::int32_t parent = -1;
  bool is_backend = false;
  std::int32_t be_rank = -1;  ///< back-end index for leaves, -1 otherwise

  friend bool operator==(const TopoNode& a, const TopoNode& b) {
    return a.host == b.host && a.port == b.port && a.parent == b.parent &&
           a.is_backend == b.is_backend && a.be_rank == b.be_rank;
  }
};

class Topology {
 public:
  /// No nodes (not valid()).
  Topology();

  /// 1-to-N: FE root, every back end a direct child (paper Fig. 6 setup).
  static Topology one_deep(const std::string& fe_host, cluster::Port fe_port,
                           const std::vector<std::string>& be_hosts);

  /// Balanced tree: comm daemons (on `comm_hosts`) form a `fanout`-ary tree
  /// under the FE; back ends are distributed under the deepest comm layer.
  static Topology balanced(const std::string& fe_host, cluster::Port fe_port,
                           const std::vector<std::string>& comm_hosts,
                           const std::vector<std::string>& be_hosts,
                           int fanout, cluster::Port comm_port);

  /// Like balanced() but the comm-daemon layer takes any comm::Topology
  /// shape (k-ary, binomial, flat), making the overlay tree a benchmarkable
  /// axis. `attach_weights`, when it has one entry per back-end attach
  /// point (the leaf comm daemons in rank order; the FE alone when there
  /// are none), sizes each attach point's contiguous back-end block
  /// proportionally (capacity-weighted placement); otherwise blocks are
  /// near-equal.
  static Topology shaped(const std::string& fe_host, cluster::Port fe_port,
                         const std::vector<std::string>& comm_hosts,
                         const std::vector<std::string>& be_hosts,
                         comm::TopologySpec spec, cluster::Port comm_port,
                         const std::vector<double>& attach_weights = {});

  /// Topology-aware placement: like shaped(), but instead of dedicated
  /// middleware hosts each comm daemon is co-located on the first back-end
  /// host of the contiguous rank block its subtree serves (all three tree
  /// families give every comm subtree a contiguous back-end run). The
  /// child -> parent hop for that first block then rides node-local
  /// transport (local_latency) instead of the network, and no extra
  /// allocation is needed for the middleware layer. `n_comm` is the comm
  /// daemon count; weights behave as in shaped().
  static Topology shaped_colocated(const std::string& fe_host,
                                   cluster::Port fe_port, std::size_t n_comm,
                                   const std::vector<std::string>& be_hosts,
                                   comm::TopologySpec spec,
                                   cluster::Port comm_port,
                                   const std::vector<double>& attach_weights
                                   = {});

  [[nodiscard]] const std::vector<TopoNode>& nodes() const {
    return shape_->nodes;
  }
  [[nodiscard]] std::size_t size() const { return shape_->nodes.size(); }
  [[nodiscard]] const TopoNode& root() const { return shape_->nodes.front(); }

  // Lookups answered from the index built with the topology: O(1), or
  // O(children) for children_of().
  /// Indices of the nodes whose parent is `index`, ascending; a view into
  /// the shared index, valid while any copy of this topology lives.
  [[nodiscard]] std::span<const int> children_of(int index) const;
  /// Node index of the back end with `be_rank`; -1 when there is none.
  [[nodiscard]] int index_of_backend(int be_rank) const;
  /// True when the subtree rooted at `index` contains a back end.
  [[nodiscard]] bool subtree_has_backend(int index) const;
  [[nodiscard]] int num_backends() const { return shape_->num_backends; }
  [[nodiscard]] int num_comm_nodes() const;
  /// Depth of the deepest node (root = 0); the 1-deep topology returns 1.
  /// Counts only nodes the root reaches, so it is exact for valid() trees.
  [[nodiscard]] int depth() const { return shape_->depth; }

  /// Structural validation: single root at index 0, acyclic parent links,
  /// back ends are leaves, comm nodes have listening ports, and the back
  /// ends' ranks are 0..num_backends()-1, each once.
  [[nodiscard]] bool valid() const { return shape_->valid; }

  [[nodiscard]] Bytes pack() const;
  /// Decodes a packed topology; nullopt for a truncated one. Structure is
  /// judged by valid(), not here.
  ///
  /// The last view decoded is remembered by its SliceIdentity (buffer,
  /// start and length), successes only, so unpacking that same view again -
  /// as every daemon of a launch does with the one broadcast that carries
  /// the tree - costs O(1) and returns the same shared value. This is sound
  /// because a shared ByteSlice buffer is never written, and no fault mode
  /// alters payload bytes in flight; drop the memo if one ever does.
  static std::optional<Topology> unpack(const ByteSlice& data);
  /// Decodes an owned blob on its own (no memo): the ad hoc argv path.
  static std::optional<Topology> unpack(const Bytes& data);

  friend bool operator==(const Topology& a, const Topology& b) {
    return a.nodes() == b.nodes();
  }

 private:
  /// The nodes and what validating and indexing them found, built once.
  struct Shape {
    std::vector<TopoNode> nodes;
    /// Children of node i: children[child_begin[i] .. child_begin[i + 1]).
    std::vector<int> child_begin;
    std::vector<int> children;
    std::vector<int> backend_at;    ///< be_rank -> node index, -1 if none
    std::vector<bool> has_backend;  ///< node i's subtree holds a back end
    int num_backends = 0;
    int depth = 0;
    bool valid = false;
  };

  explicit Topology(std::vector<TopoNode> nodes);
  static std::optional<Topology> decode(std::span<const std::uint8_t> data);

  /// Shared builder behind shaped()/shaped_colocated(): per-daemon listen
  /// ports, because co-located daemons can share a host.
  static Topology assemble(const std::string& fe_host, cluster::Port fe_port,
                           const std::vector<std::string>& comm_hosts,
                           const std::vector<cluster::Port>& comm_ports,
                           const std::vector<std::string>& be_hosts,
                           comm::TopologySpec spec,
                           const std::vector<double>& attach_weights);

  /// The nodes and their index; shared by every copy, never written.
  std::shared_ptr<const Shape> shape_;
};

}  // namespace lmon::tbon
