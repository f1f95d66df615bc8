#include "tools/stat/prefix_tree.hpp"

#include <functional>

namespace lmon::tools::stat {

PrefixTree::PrefixTree() : root_(std::make_unique<Node>()) {
  root_->frame = "<root>";
}

void PrefixTree::add_trace(const std::vector<std::string>& stack,
                           std::int32_t rank) {
  Node* cur = root_.get();
  cur->ranks.insert(rank);
  for (const auto& frame : stack) {
    auto& child = cur->children[frame];
    if (child == nullptr) {
      child = std::make_unique<Node>();
      child->frame = frame;
    }
    child->ranks.insert(rank);
    cur = child.get();
  }
  cur->terminal_ranks.insert(rank);
}

void PrefixTree::merge_into(Node& dst, const Node& src) {
  dst.ranks.insert(src.ranks.begin(), src.ranks.end());
  dst.terminal_ranks.insert(src.terminal_ranks.begin(),
                            src.terminal_ranks.end());
  for (const auto& [frame, child] : src.children) {
    auto& dchild = dst.children[frame];
    if (dchild == nullptr) {
      dchild = std::make_unique<Node>();
      dchild->frame = frame;
    }
    merge_into(*dchild, *child);
  }
}

void PrefixTree::merge(const PrefixTree& other) {
  merge_into(*root_, *other.root_);
}

std::vector<PrefixTree::EquivClass> PrefixTree::equivalence_classes() const {
  std::vector<EquivClass> out;
  std::vector<std::string> path;
  std::function<void(const Node&)> walk = [&](const Node& n) {
    if (!n.terminal_ranks.empty() && !path.empty()) {
      out.push_back(EquivClass{path, n.terminal_ranks});
    }
    for (const auto& [frame, child] : n.children) {
      path.push_back(frame);
      walk(*child);
      path.pop_back();
    }
  };
  walk(*root_);
  return out;
}

std::size_t PrefixTree::node_count() const {
  std::size_t count = 0;
  std::function<void(const Node&)> walk = [&](const Node& n) {
    count += 1;
    for (const auto& [frame, child] : n.children) walk(*child);
  };
  walk(*root_);
  return count - 1;  // exclude the synthetic root
}

std::set<std::int32_t> PrefixTree::all_ranks() const { return root_->ranks; }

namespace {

void pack_node(ByteWriter& w, const PrefixTree::Node& n) {
  w.str(n.frame);
  w.u32(static_cast<std::uint32_t>(n.ranks.size()));
  for (std::int32_t r : n.ranks) w.i32(r);
  w.u32(static_cast<std::uint32_t>(n.terminal_ranks.size()));
  for (std::int32_t r : n.terminal_ranks) w.i32(r);
  w.u32(static_cast<std::uint32_t>(n.children.size()));
  for (const auto& [frame, child] : n.children) pack_node(w, *child);
}

// pack_node writes rank sets in ascending order, so each insert is hinted
// at end(): amortized O(1) instead of a tree descent. The hint is only a
// hint, so unsorted or duplicate input still decodes to the same set.
bool unpack_node(ByteReader& r, PrefixTree::Node& n) {
  auto frame = r.str();
  auto nranks = r.u32();
  if (!frame || !nranks) return false;
  n.frame = std::move(*frame);
  for (std::uint32_t i = 0; i < *nranks; ++i) {
    auto rank = r.i32();
    if (!rank) return false;
    n.ranks.insert(n.ranks.end(), *rank);
  }
  auto nterm = r.u32();
  if (!nterm) return false;
  for (std::uint32_t i = 0; i < *nterm; ++i) {
    auto rank = r.i32();
    if (!rank) return false;
    n.terminal_ranks.insert(n.terminal_ranks.end(), *rank);
  }
  auto nchildren = r.u32();
  if (!nchildren) return false;
  for (std::uint32_t i = 0; i < *nchildren; ++i) {
    auto child = std::make_unique<PrefixTree::Node>();
    if (!unpack_node(r, *child)) return false;
    n.children.emplace(child->frame, std::move(child));
  }
  return true;
}

}  // namespace

Bytes PrefixTree::pack() const {
  ByteWriter w;
  pack_node(w, *root_);
  return std::move(w).take();
}

std::optional<PrefixTree> PrefixTree::unpack(const Bytes& data) {
  ByteReader r(data);
  PrefixTree t;
  if (!unpack_node(r, *t.root_)) return std::nullopt;
  return t;
}

std::string PrefixTree::render() const {
  std::string out;
  std::function<void(const Node&, int)> walk = [&](const Node& n, int depth) {
    if (depth > 0) {
      out.append(static_cast<std::size_t>(depth - 1) * 2, ' ');
      out += n.frame;
      out += "  [" + std::to_string(n.ranks.size()) + " task" +
             (n.ranks.size() == 1 ? "" : "s") + "]\n";
    }
    for (const auto& [frame, child] : n.children) walk(*child, depth + 1);
  };
  walk(*root_, 0);
  return out;
}

}  // namespace lmon::tools::stat
