#include "comm/topology.hpp"

#include <algorithm>
#include <bit>

namespace lmon::comm {

std::string_view to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::KAry:
      return "kary";
    case TopologyKind::Binomial:
      return "binomial";
    case TopologyKind::Flat:
      return "flat";
  }
  return "kary";
}

std::optional<TopologyKind> topology_kind_from_u8(std::uint8_t v) {
  switch (v) {
    case static_cast<std::uint8_t>(TopologyKind::KAry):
      return TopologyKind::KAry;
    case static_cast<std::uint8_t>(TopologyKind::Binomial):
      return TopologyKind::Binomial;
    case static_cast<std::uint8_t>(TopologyKind::Flat):
      return TopologyKind::Flat;
    default:
      return std::nullopt;
  }
}

std::optional<TopologyKind> topology_kind_from_string(std::string_view name) {
  if (name == "kary" || name == "k-ary") return TopologyKind::KAry;
  if (name == "binomial") return TopologyKind::Binomial;
  if (name == "flat") return TopologyKind::Flat;
  return std::nullopt;
}

std::string TopologySpec::to_string() const {
  std::string out(comm::to_string(kind));
  if (kind == TopologyKind::KAry) {
    out += ':';
    out += std::to_string(arity);
  }
  return out;
}

std::optional<TopologySpec> TopologySpec::parse(std::string_view text) {
  TopologySpec spec;
  const std::size_t colon = text.find(':');
  const std::string_view name = text.substr(0, colon);
  auto kind = topology_kind_from_string(name);
  if (!kind) return std::nullopt;
  spec.kind = *kind;
  // Non-k-ary kinds ignore arity for the fabric shape, but a nonzero value
  // would also suppress the "platform default" launch fan-out
  // normalization - keep it 0 ("default") unless spelled out.
  if (spec.kind != TopologyKind::KAry) spec.arity = 0;
  if (colon != std::string_view::npos) {
    std::uint32_t arity = 0;
    for (char c : text.substr(colon + 1)) {
      if (c < '0' || c > '9') return std::nullopt;
      arity = arity * 10 + static_cast<std::uint32_t>(c - '0');
    }
    spec.arity = arity;
  }
  return spec;
}

Topology::Topology(TopologySpec spec, std::uint32_t size)
    : spec_(spec), size_(size) {
  if (spec_.arity == 0) spec_.arity = 1;
}

std::optional<std::uint32_t> Topology::parent_of(std::uint32_t rank) const {
  if (rank == 0 || rank >= size_) return std::nullopt;
  switch (spec_.kind) {
    case TopologyKind::KAry:
      return (rank - 1) / spec_.arity;
    case TopologyKind::Binomial:
      return rank & (rank - 1);  // clear the lowest set bit
    case TopologyKind::Flat:
      return 0;
  }
  return std::nullopt;
}

std::vector<std::uint32_t> Topology::children_of(std::uint32_t rank) const {
  std::vector<std::uint32_t> out;
  for_each_child(rank, [&](std::uint32_t c) { out.push_back(c); });
  return out;
}

std::vector<std::uint32_t> Topology::subtree_of(std::uint32_t rank) const {
  std::vector<std::uint32_t> out;
  if (rank >= size_) return out;
  std::vector<std::uint32_t> frontier{rank};
  while (!frontier.empty()) {
    const std::uint32_t r = frontier.back();
    frontier.pop_back();
    out.push_back(r);
    for_each_child(r, [&](std::uint32_t c) { frontier.push_back(c); });
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint32_t Topology::depth_of(std::uint32_t rank) const {
  std::uint32_t d = 0;
  std::uint32_t cur = rank;
  while (cur != 0 && cur < size_) {
    auto p = parent_of(cur);
    if (!p) break;
    cur = *p;
    d += 1;
  }
  return d;
}

std::uint32_t Topology::depth() const {
  if (size_ <= 1) return 0;
  switch (spec_.kind) {
    case TopologyKind::KAry: {
      if (spec_.arity == 1) return size_ - 1;  // a chain
      // Heap layout: a depth-d tree holds 1 + k + ... + k^d ranks.
      std::uint32_t d = 0;
      std::uint64_t capacity = 1;
      std::uint64_t level = 1;
      while (capacity < size_) {
        level *= spec_.arity;
        capacity += level;
        d += 1;
      }
      return d;
    }
    case TopologyKind::Binomial:
      // depth_of(r) is popcount(r), and the most bits set in a rank below
      // size_ is floor(log2(size_)): 2^b - 1 <= size_ - 1.
      return static_cast<std::uint32_t>(std::bit_width(size_)) - 1;
    case TopologyKind::Flat:
      return 1;
  }
  return 0;
}

std::uint64_t Topology::edge_count() const {
  std::uint64_t edges = 0;
  for (std::uint32_t r = 0; r < size_; ++r) {
    for_each_child(r, [&](std::uint32_t) { edges += 1; });
  }
  return edges;
}

std::vector<std::pair<std::size_t, std::size_t>> split_contiguous(
    std::size_t count, std::uint32_t fanout) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (count == 0) return chunks;
  const std::size_t nchunks =
      std::min<std::size_t>(fanout == 0 ? 1 : fanout, count);
  chunks.reserve(nchunks);
  const std::size_t base = count / nchunks;
  const std::size_t extra = count % nchunks;
  std::size_t pos = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    chunks.emplace_back(pos, len);
    pos += len;
  }
  return chunks;
}

std::vector<std::pair<std::size_t, std::size_t>> split_weighted(
    std::size_t count, const std::vector<double>& weights) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (count == 0 || weights.empty()) return chunks;
  double total = 0;
  for (double w : weights) total += w > 0 ? w : 0;
  if (total <= 0) {
    // Degenerate weights: fall back to the near-equal split, padded with
    // empty blocks so the result still has one entry per weight.
    chunks = split_contiguous(count,
                              static_cast<std::uint32_t>(weights.size()));
    while (chunks.size() < weights.size()) chunks.emplace_back(count, 0);
    return chunks;
  }
  // Largest-remainder apportionment: floor the ideal share, then hand the
  // leftover items to the largest fractional parts (ties to the lower
  // index) - deterministic and exact, no float-accumulation drift.
  std::vector<std::size_t> len(weights.size(), 0);
  std::vector<std::pair<double, std::size_t>> frac;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0 ? weights[i] : 0;
    const double ideal = static_cast<double>(count) * w / total;
    len[i] = static_cast<std::size_t>(ideal);
    assigned += len[i];
    frac.emplace_back(ideal - static_cast<double>(len[i]), i);
  }
  std::sort(frac.begin(), frac.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (std::size_t k = 0; assigned < count; ++k) {
    len[frac[k % frac.size()].second] += 1;
    assigned += 1;
  }
  chunks.reserve(weights.size());
  std::size_t pos = 0;
  for (std::size_t l : len) {
    chunks.emplace_back(pos, l);
    pos += l;
  }
  return chunks;
}

}  // namespace lmon::comm
