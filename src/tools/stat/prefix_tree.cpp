#include "tools/stat/prefix_tree.hpp"

#include <algorithm>
#include <functional>

namespace lmon::tools::stat {

namespace {

using RankSet = std::vector<std::int32_t>;

/// Unions the sorted, duplicate-free `in` into `dst`. A block that lands in
/// one gap of `dst` (STAT's common case: each daemon owns a rank range) is
/// inserted in place; interleaved sets go through `scratch`.
void union_into(RankSet& dst, std::span<const std::int32_t> in,
                RankSet& scratch) {
  if (in.empty()) return;
  const auto pos = std::lower_bound(dst.begin(), dst.end(), in.front());
  if (pos == dst.end() || in.back() < *pos) {
    dst.insert(pos, in.begin(), in.end());
    return;
  }
  scratch.clear();
  std::set_union(dst.begin(), dst.end(), in.begin(), in.end(),
                 std::back_inserter(scratch));
  dst.swap(scratch);
}

void insert_rank(RankSet& set, std::int32_t rank) {
  const auto pos = std::lower_bound(set.begin(), set.end(), rank);
  if (pos == set.end() || *pos != rank) set.insert(pos, rank);
}

PrefixTree::Node& child_of(PrefixTree::Node& n, std::string_view frame) {
  auto it = n.children.find(frame);
  if (it == n.children.end()) {
    it = n.children.emplace(std::string(frame),
                            std::make_unique<PrefixTree::Node>())
             .first;
    it->second->frame = it->first;
  }
  return *it->second;
}

void merge_node(PrefixTree::Node& dst, const PrefixTree::Node& src,
                RankSet& scratch) {
  union_into(dst.ranks, src.ranks, scratch);
  union_into(dst.terminal_ranks, src.terminal_ranks, scratch);
  for (const auto& [frame, child] : src.children) {
    merge_node(child_of(dst, frame), *child, scratch);
  }
}

}  // namespace

PrefixTree::PrefixTree() : root_(std::make_unique<Node>()) {
  root_->frame = "<root>";
}

void PrefixTree::add_trace(const std::vector<std::string>& stack,
                           std::int32_t rank) {
  Node* cur = root_.get();
  insert_rank(cur->ranks, rank);
  for (const auto& frame : stack) {
    cur = &child_of(*cur, frame);
    insert_rank(cur->ranks, rank);
  }
  insert_rank(cur->terminal_ranks, rank);
}

void PrefixTree::merge(const PrefixTree& other) {
  RankSet scratch;
  merge_node(*root_, *other.root_, scratch);
}

std::vector<PrefixTree::EquivClass> PrefixTree::equivalence_classes() const {
  std::vector<EquivClass> out;
  std::vector<std::string> path;
  std::function<void(const Node&)> walk = [&](const Node& n) {
    if (!n.terminal_ranks.empty() && !path.empty()) {
      out.push_back(EquivClass{
          path, std::set<std::int32_t>(n.terminal_ranks.begin(),
                                       n.terminal_ranks.end())});
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

std::set<std::int32_t> PrefixTree::all_ranks() const {
  return {root_->ranks.begin(), root_->ranks.end()};
}

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

std::size_t packed_node_size(const PrefixTree::Node& n) {
  std::size_t size = 4 + n.frame.size() + 4 + 4 * n.ranks.size() + 4 +
                     4 * n.terminal_ranks.size() + 4;
  for (const auto& [frame, child] : n.children) {
    size += packed_node_size(*child);
  }
  return size;
}

/// Walks one packed node without decoding it: the validation pass that
/// lets merge_packed reject malformed input before touching the tree.
bool skip_node(ByteReader& r) {
  if (!r.str_view()) return false;
  for (int set = 0; set < 2; ++set) {  // ranks, terminal ranks
    auto n = r.u32();
    if (!n || !r.skip(4 * std::size_t{*n})) return false;
  }
  auto nchildren = r.u32();
  if (!nchildren) return false;
  for (std::uint32_t i = 0; i < *nchildren; ++i) {
    if (!skip_node(r)) return false;
  }
  return true;
}

/// pack_node writes rank sets sorted and unique; anything else (a
/// hand-built blob) is sorted and deduplicated so it decodes to the same
/// set.
void read_rank_set(ByteReader& r, RankSet& out) {
  const std::uint32_t n = *r.u32();
  out.resize(n);
  for (std::int32_t& rank : out) rank = *r.i32();
  if (std::adjacent_find(out.begin(), out.end(),
                         std::greater_equal<>()) != out.end()) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
}

/// Merges the rest of a packed node (its frame already read) into `dst`.
/// The input was validated by skip_node, so reads cannot fail.
void merge_packed_node(ByteReader& r, PrefixTree::Node& dst, RankSet& in,
                       RankSet& scratch) {
  read_rank_set(r, in);
  union_into(dst.ranks, in, scratch);
  read_rank_set(r, in);
  union_into(dst.terminal_ranks, in, scratch);
  const std::uint32_t nchildren = *r.u32();
  for (std::uint32_t i = 0; i < nchildren; ++i) {
    const std::string_view frame = *r.str_view();
    merge_packed_node(r, child_of(dst, frame), in, scratch);
  }
}

}  // namespace

Bytes PrefixTree::pack() const {
  ByteWriter w(packed_size());
  pack_node(w, *root_);
  return std::move(w).take();
}

std::size_t PrefixTree::packed_size() const {
  return packed_node_size(*root_);
}

bool PrefixTree::merge_packed(std::span<const std::uint8_t> packed) {
  ByteReader check(packed);
  if (!skip_node(check)) return false;
  ByteReader r(packed);
  (void)r.str_view();  // the root's frame name
  RankSet in;
  RankSet scratch;
  merge_packed_node(r, *root_, in, scratch);
  return true;
}

std::optional<PrefixTree> PrefixTree::unpack(const Bytes& data) {
  PrefixTree t;
  if (!t.merge_packed(data)) return std::nullopt;
  t.root_->frame = std::string(*ByteReader(data).str_view());
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
