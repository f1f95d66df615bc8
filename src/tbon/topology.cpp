#include "tbon/topology.hpp"

#include <algorithm>
#include <utility>

#include "comm/topology.hpp"

namespace lmon::tbon {

Topology::Topology() : Topology(std::vector<TopoNode>{}) {}

Topology::Topology(std::vector<TopoNode> nodes) {
  auto s = std::make_shared<Shape>();
  s->nodes = std::move(nodes);
  const std::vector<TopoNode>& n = s->nodes;
  const auto count = static_cast<int>(n.size());
  const auto in_range = [count](int i) { return i >= 0 && i < count; };

  // Children of each node, in index order (a counting sort by parent).
  s->child_begin.assign(n.size() + 1, 0);
  for (const TopoNode& node : n) {
    if (in_range(node.parent)) {
      ++s->child_begin[static_cast<std::size_t>(node.parent) + 1];
    }
  }
  for (std::size_t i = 1; i < s->child_begin.size(); ++i) {
    s->child_begin[i] += s->child_begin[i - 1];
  }
  s->children.resize(static_cast<std::size_t>(s->child_begin.back()));
  std::vector<int> next(s->child_begin.begin(), s->child_begin.end() - 1);
  for (int i = 0; i < count; ++i) {
    const int parent = n[static_cast<std::size_t>(i)].parent;
    if (in_range(parent)) {
      s->children[static_cast<std::size_t>(
          next[static_cast<std::size_t>(parent)]++)] = i;
    }
  }
  shape_ = s;  // children_of() works from here; the rest fills in below

  // Back ends by rank: the ranks must be 0..num_backends-1, each once.
  for (const TopoNode& node : n) s->num_backends += node.is_backend ? 1 : 0;
  s->backend_at.assign(static_cast<std::size_t>(s->num_backends), -1);
  bool ranks_ok = true;
  for (int i = 0; i < count; ++i) {
    const TopoNode& node = n[static_cast<std::size_t>(i)];
    if (!node.is_backend) continue;
    if (node.be_rank < 0 || node.be_rank >= s->num_backends ||
        s->backend_at[static_cast<std::size_t>(node.be_rank)] >= 0) {
      ranks_ok = false;
      continue;
    }
    s->backend_at[static_cast<std::size_t>(node.be_rank)] = i;
  }

  // Breadth-first from the root: depths, and which nodes the root reaches.
  // Every non-root node has one parent, so the parent links are acyclic
  // exactly when the root reaches every node.
  std::vector<int> order;
  std::vector<int> depth_of(n.size(), -1);
  if (!n.empty()) {
    order.reserve(n.size());
    order.push_back(0);
    depth_of[0] = 0;
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    const int u = order[k];
    for (const int c : children_of(u)) {
      if (depth_of[static_cast<std::size_t>(c)] >= 0) continue;
      depth_of[static_cast<std::size_t>(c)] =
          depth_of[static_cast<std::size_t>(u)] + 1;
      s->depth = std::max(s->depth, depth_of[static_cast<std::size_t>(c)]);
      order.push_back(c);
    }
  }
  // A subtree holds a back end when its root is one or a child's does;
  // reverse breadth-first order visits children before their parents.
  s->has_backend.resize(n.size());
  for (std::size_t i = 0; i < n.size(); ++i) {
    s->has_backend[i] = n[i].is_backend;
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int parent = n[static_cast<std::size_t>(*it)].parent;
    if (s->has_backend[static_cast<std::size_t>(*it)] && in_range(parent)) {
      s->has_backend[static_cast<std::size_t>(parent)] = true;
    }
  }

  s->valid = !n.empty() && n.front().parent == -1 && ranks_ok &&
             order.size() == n.size();
  for (std::size_t i = 1; s->valid && i < n.size(); ++i) {
    // Back ends must be leaves; comm nodes need a listening port.
    s->valid = !n[static_cast<std::size_t>(n[i].parent)].is_backend &&
               (n[i].is_backend || n[i].port != 0);
  }
}

Topology Topology::one_deep(const std::string& fe_host,
                            cluster::Port fe_port,
                            const std::vector<std::string>& be_hosts) {
  std::vector<TopoNode> nodes;
  nodes.reserve(1 + be_hosts.size());
  nodes.push_back(TopoNode{fe_host, fe_port, -1, false, -1});
  for (std::size_t i = 0; i < be_hosts.size(); ++i) {
    nodes.push_back(
        TopoNode{be_hosts[i], 0, 0, true, static_cast<std::int32_t>(i)});
  }
  return Topology(std::move(nodes));
}

Topology Topology::balanced(const std::string& fe_host,
                            cluster::Port fe_port,
                            const std::vector<std::string>& comm_hosts,
                            const std::vector<std::string>& be_hosts,
                            int fanout, cluster::Port comm_port) {
  if (fanout < 1) fanout = 1;
  return shaped(fe_host, fe_port, comm_hosts, be_hosts,
                {comm::TopologyKind::KAry, static_cast<std::uint32_t>(fanout)},
                comm_port);
}

namespace {

/// Back-end block per attach point: capacity-weighted when one weight per
/// attach point is supplied, near-equal otherwise.
std::vector<std::pair<std::size_t, std::size_t>> attach_blocks(
    std::size_t n_backends, std::size_t n_attach,
    const std::vector<double>& attach_weights) {
  if (attach_weights.size() == n_attach && !attach_weights.empty()) {
    return comm::split_weighted(n_backends, attach_weights);
  }
  return comm::split_contiguous(n_backends,
                                static_cast<std::uint32_t>(n_attach));
}

/// Leaf comm ranks (no comm children) in rank order; every comm rank when
/// the shape makes them all interior (cannot happen in the three families,
/// but keeps the fallback of the original attachment logic).
std::vector<std::uint32_t> attach_ranks(const comm::Topology& ct) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < ct.size(); ++i) {
    if (ct.children_of(i).empty()) out.push_back(i);
  }
  if (out.empty()) {
    for (std::uint32_t i = 0; i < ct.size(); ++i) out.push_back(i);
  }
  return out;
}

}  // namespace

Topology Topology::shaped(const std::string& fe_host, cluster::Port fe_port,
                          const std::vector<std::string>& comm_hosts,
                          const std::vector<std::string>& be_hosts,
                          comm::TopologySpec spec, cluster::Port comm_port,
                          const std::vector<double>& attach_weights) {
  // Dedicated middleware hosts never collide, so one shared port suffices.
  return assemble(fe_host, fe_port, comm_hosts,
                  std::vector<cluster::Port>(comm_hosts.size(), comm_port),
                  be_hosts, spec, attach_weights);
}

Topology Topology::assemble(const std::string& fe_host, cluster::Port fe_port,
                            const std::vector<std::string>& comm_hosts,
                            const std::vector<cluster::Port>& comm_ports,
                            const std::vector<std::string>& be_hosts,
                            comm::TopologySpec spec,
                            const std::vector<double>& attach_weights) {
  std::vector<TopoNode> nodes;
  nodes.reserve(1 + comm_hosts.size() + be_hosts.size());
  nodes.push_back(TopoNode{fe_host, fe_port, -1, false, -1});

  // Comm daemons form a tree of the requested shape rooted at the FE; the
  // tree arithmetic comes from comm::Topology (host index == rank, the
  // rank-0 comm daemon's parent is the FE).
  const comm::Topology ct(spec,
                          static_cast<std::uint32_t>(comm_hosts.size()));
  std::vector<int> comm_indices;
  for (std::size_t i = 0; i < comm_hosts.size(); ++i) {
    const auto parent_rank = ct.parent_of(static_cast<std::uint32_t>(i));
    const int parent = parent_rank ? comm_indices[*parent_rank] : 0;
    nodes.push_back(TopoNode{comm_hosts[i], comm_ports[i], parent, false, -1});
    comm_indices.push_back(static_cast<int>(nodes.size()) - 1);
  }

  // Back ends hang off the deepest comm layer (or the FE when no comm
  // nodes), in contiguous blocks: leaf comm daemon i owns the i-th
  // slice of the back-end rank range (near-equal, or capacity-weighted
  // when attach_weights says so). Every comm subtree then covers one
  // contiguous rank interval (comm subtrees own contiguous leaf runs in
  // all three tree families), which keeps scatter partitions and
  // rank-range filters subtree-local. The old round-robin attachment
  // strided consecutive ranks across every leaf daemon instead.
  std::vector<int> attach_points;
  if (comm_indices.empty()) {
    attach_points.push_back(0);
  } else {
    for (std::uint32_t r : attach_ranks(ct)) {
      attach_points.push_back(comm_indices[r]);
    }
  }
  const auto blocks =
      attach_blocks(be_hosts.size(), attach_points.size(), attach_weights);
  std::vector<int> parent_of_rank(be_hosts.size(), attach_points[0]);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::size_t r = blocks[b].first;
         r < blocks[b].first + blocks[b].second; ++r) {
      parent_of_rank[r] = attach_points[b];
    }
  }
  for (std::size_t i = 0; i < be_hosts.size(); ++i) {
    nodes.push_back(TopoNode{be_hosts[i], 0, parent_of_rank[i], true,
                             static_cast<std::int32_t>(i)});
  }
  return Topology(std::move(nodes));
}

Topology Topology::shaped_colocated(
    const std::string& fe_host, cluster::Port fe_port, std::size_t n_comm,
    const std::vector<std::string>& be_hosts, comm::TopologySpec spec,
    cluster::Port comm_port, const std::vector<double>& attach_weights) {
  if (n_comm == 0 || be_hosts.empty()) {
    return shaped(fe_host, fe_port, {}, be_hosts, spec, comm_port,
                  attach_weights);
  }
  const comm::Topology ct(spec, static_cast<std::uint32_t>(n_comm));
  const auto leaves = attach_ranks(ct);
  const auto blocks =
      attach_blocks(be_hosts.size(), leaves.size(), attach_weights);
  // First back-end rank served through each leaf comm daemon. Empty blocks
  // (weight rounded to zero) borrow the next block's start so the daemon
  // still lands on a job node.
  std::vector<std::size_t> leaf_first(ct.size(), 0);
  for (std::size_t b = 0; b < leaves.size(); ++b) {
    const auto& blk = blocks[b];
    leaf_first[leaves[b]] =
        std::min(blk.first, be_hosts.size() - 1);
  }
  // Each comm daemon sits on the first back-end host of its subtree's
  // contiguous rank run: the lowest leaf_first among its descendant
  // leaves.
  std::vector<std::string> comm_hosts(n_comm);
  std::vector<cluster::Port> comm_ports(n_comm);
  for (std::uint32_t r = 0; r < ct.size(); ++r) {
    std::size_t first = be_hosts.size() - 1;
    for (std::uint32_t s : ct.subtree_of(r)) {
      if (ct.children_of(s).empty()) {
        first = std::min(first, leaf_first[s]);
      }
    }
    comm_hosts[r] = be_hosts[first];
    // An interior daemon shares its host with its first leaf descendant;
    // per-rank ports keep the co-located listeners apart.
    comm_ports[r] = static_cast<cluster::Port>(comm_port + r);
  }
  return assemble(fe_host, fe_port, comm_hosts, comm_ports, be_hosts, spec,
                  attach_weights);
}

std::span<const int> Topology::children_of(int index) const {
  if (index < 0 || static_cast<std::size_t>(index) >= size()) return {};
  const auto i = static_cast<std::size_t>(index);
  return std::span<const int>(shape_->children)
      .subspan(static_cast<std::size_t>(shape_->child_begin[i]),
               static_cast<std::size_t>(shape_->child_begin[i + 1] -
                                        shape_->child_begin[i]));
}

int Topology::index_of_backend(int be_rank) const {
  return be_rank >= 0 && be_rank < num_backends()
             ? shape_->backend_at[static_cast<std::size_t>(be_rank)]
             : -1;
}

bool Topology::subtree_has_backend(int index) const {
  return index >= 0 && static_cast<std::size_t>(index) < size() &&
         shape_->has_backend[static_cast<std::size_t>(index)];
}

int Topology::num_comm_nodes() const {
  return static_cast<int>(size()) - num_backends() - 1;
}

Bytes Topology::pack() const {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(size()));
  for (const auto& n : nodes()) {
    w.str(n.host);
    w.u16(n.port);
    w.i32(n.parent);
    w.boolean(n.is_backend);
    w.i32(n.be_rank);
  }
  return std::move(w).take();
}

std::optional<Topology> Topology::unpack(const ByteSlice& data) {
  thread_local LastView<Topology> last;
  return last.get(data, [](const ByteSlice& view) -> std::optional<Topology> {
    ByteReader r(view.span());
    // Every node takes at least 15 bytes: an empty host and the fields.
    auto nodes = r.list(15, [](ByteReader& in) -> std::optional<TopoNode> {
      auto host = in.str();
      auto port = in.u16();
      auto parent = in.i32();
      auto is_be = in.boolean();
      auto be_rank = in.i32();
      if (!host || !port || !parent || !is_be || !be_rank) return std::nullopt;
      return TopoNode{std::move(*host), *port, *parent, *is_be, *be_rank};
    });
    if (!nodes) return std::nullopt;
    return Topology(std::move(*nodes));
  });
}

}  // namespace lmon::tbon
