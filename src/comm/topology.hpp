// topology.hpp - the one place that knows tree shapes.
//
// Before this layer existed the k-ary parent/child arithmetic was
// re-implemented in the ICCL (src/core/iccl.cpp), the TBON layout
// (src/tbon/topology.cpp) and the rsh/RM launch fan-out code. comm::Topology
// centralizes it and adds the shapes the paper's ablations want to compare:
//
//   KAry      rank r's children are r*k+1 .. r*k+k (breadth-first heap
//             layout); the shape SLURM-like RMs use for bulk launch.
//   Binomial  rank r's parent clears r's lowest set bit; the classic
//             MPI-collective shape (log2 rounds, no per-level serialization
//             beyond the sends a rank already owns).
//   Flat      1-to-N: every rank hangs off rank 0, the paper's "1-deep"
//             STAT topology and the degenerate case of serial fan-out.
//
// All queries are pure functions of (kind, arity, size, rank): nothing here
// touches processes or sockets, which is what lets five layers share it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lmon::comm {

enum class TopologyKind : std::uint8_t {
  KAry = 0,
  Binomial = 1,
  Flat = 2,
};

[[nodiscard]] std::string_view to_string(TopologyKind kind);
[[nodiscard]] std::optional<TopologyKind> topology_kind_from_string(
    std::string_view name);

/// Validated wire decode: nullopt for bytes outside the enum range, so a
/// corrupted payload is rejected at decode instead of producing a kind no
/// Topology switch handles.
[[nodiscard]] std::optional<TopologyKind> topology_kind_from_u8(
    std::uint8_t v);

/// Shape parameters: everything a daemon needs (beyond its rank and the
/// session size) to compute its tree neighborhood. `arity` is the tree
/// degree for KAry; Binomial and Flat ignore it. arity==0 means "use the
/// platform default" and is normalized to 1 by Topology.
struct TopologySpec {
  TopologyKind kind = TopologyKind::KAry;
  std::uint32_t arity = 2;

  /// "kary:8", "binomial", "flat" - the argv/CLI wire form.
  [[nodiscard]] std::string to_string() const;
  static std::optional<TopologySpec> parse(std::string_view text);

  friend bool operator==(const TopologySpec& a, const TopologySpec& b) {
    return a.kind == b.kind && a.arity == b.arity;
  }
};

class Topology {
 public:
  Topology(TopologySpec spec, std::uint32_t size);

  [[nodiscard]] const TopologySpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }

  /// Parent rank, or nullopt for the root (rank 0) and for out-of-range
  /// ranks.
  [[nodiscard]] std::optional<std::uint32_t> parent_of(
      std::uint32_t rank) const;

  /// Direct children of `rank`, ascending.
  [[nodiscard]] std::vector<std::uint32_t> children_of(
      std::uint32_t rank) const;

  /// Calls fn(child) for each direct child of `rank`, ascending, without
  /// building a vector (the PerfModel replays visit every rank per probe).
  template <typename Fn>
  void for_each_child(std::uint32_t rank, Fn&& fn) const {
    if (rank >= size_) return;
    switch (spec_.kind) {
      case TopologyKind::KAry:
        for (std::uint32_t i = 1; i <= spec_.arity; ++i) {
          const std::uint64_t c =
              static_cast<std::uint64_t>(rank) * spec_.arity + i;
          if (c >= size_) break;
          fn(static_cast<std::uint32_t>(c));
        }
        break;
      case TopologyKind::Binomial: {
        // Children are rank + 2^j for every 2^j below rank's lowest set bit
        // (the root owns every power of two).
        const std::uint64_t limit =
            rank == 0 ? size_ : (rank & (~rank + 1u));
        for (std::uint64_t bit = 1; bit < limit; bit <<= 1) {
          const std::uint64_t c = rank + bit;
          if (c < size_) fn(static_cast<std::uint32_t>(c));
        }
        break;
      }
      case TopologyKind::Flat:
        if (rank == 0) {
          for (std::uint32_t r = 1; r < size_; ++r) fn(r);
        }
        break;
    }
  }

  /// All ranks in the subtree rooted at `rank` (including `rank`), sorted.
  [[nodiscard]] std::vector<std::uint32_t> subtree_of(
      std::uint32_t rank) const;

  /// Hops from `rank` up to the root; root is 0.
  [[nodiscard]] std::uint32_t depth_of(std::uint32_t rank) const;

  /// Depth of the deepest rank (a singleton tree has depth 0), in closed
  /// form: O(log n), so the model's crossover scans can ask it per size.
  [[nodiscard]] std::uint32_t depth() const;

  /// Total parent->child edges; always size-1 for a connected tree.
  [[nodiscard]] std::uint64_t edge_count() const;

 private:
  TopologySpec spec_;
  std::uint32_t size_;
};

/// Splits `count` items (indices 0..count-1) into up to `fanout` contiguous
/// chunks of near-equal length, earlier chunks taking the remainder. This is
/// the subtree partition used by recursive launch protocols (rsh tree agents
/// and the RM's node-daemon tree forwarding), which hand each child a
/// contiguous slice of the host list rather than a rank-math subtree.
/// Returns (begin, length) pairs; empty when count == 0.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
split_contiguous(std::size_t count, std::uint32_t fanout);

/// Capacity-weighted variant of split_contiguous(): splits `count` items
/// into weights.size() contiguous blocks whose lengths are proportional to
/// the weights (largest-remainder rounding, ties to the lower index, so the
/// partition is deterministic). Zero/negative weights yield empty blocks;
/// all-zero weights fall back to the near-equal split. Used by
/// topology-aware daemon placement to hand a bigger back-end slice to
/// attach points with more local capacity. Returns (begin, length) pairs,
/// one per weight, in order; empty when count == 0 or weights is empty.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
split_weighted(std::size_t count, const std::vector<double>& weights);

}  // namespace lmon::comm
