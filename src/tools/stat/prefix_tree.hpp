// prefix_tree.hpp - STAT's call-graph prefix tree (paper §5.2).
//
// "It gathers and merges multiple stack traces from a parallel
//  application's processes to form a call graph prefix tree that identifies
//  process equivalence classes (i.e., similarly behaving processes)."
//
// Each tree node is a stack frame; the set of ranks whose trace passes
// through the node is attached. Equivalence classes are the rank sets of
// the leaves: every class is a group of tasks with an identical call path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace lmon::tools::stat {

class PrefixTree {
 public:
  /// Rank sets are sorted, duplicate-free vectors: one allocation per set
  /// instead of one per rank, and a merge is a linear union.
  struct Node {
    std::string frame;
    std::vector<std::int32_t> ranks;           ///< traces passing through
    std::vector<std::int32_t> terminal_ranks;  ///< traces ending exactly here
    std::map<std::string, std::unique_ptr<Node>, std::less<>> children;
  };

  PrefixTree();
  PrefixTree(PrefixTree&&) noexcept = default;
  PrefixTree& operator=(PrefixTree&&) noexcept = default;

  /// Inserts one task's stack trace (outermost frame first).
  void add_trace(const std::vector<std::string>& stack, std::int32_t rank);

  /// Merges another tree into this one (associative & commutative, which is
  /// what lets TBON filters combine subtrees in any order).
  void merge(const PrefixTree& other);

  /// Equivalence classes: one per distinct complete call path, i.e. per
  /// node where at least one task's trace terminates (a task whose stack is
  /// a strict prefix of another's forms its own class).
  struct EquivClass {
    std::vector<std::string> path;
    std::set<std::int32_t> ranks;
  };
  [[nodiscard]] std::vector<EquivClass> equivalence_classes() const;

  [[nodiscard]] std::size_t node_count() const;
  [[nodiscard]] std::set<std::int32_t> all_ranks() const;
  [[nodiscard]] bool empty() const { return root_->children.empty(); }

  [[nodiscard]] Bytes pack() const;
  /// Exactly pack().size(), without encoding.
  [[nodiscard]] std::size_t packed_size() const;
  static std::optional<PrefixTree> unpack(const Bytes& data);
  /// Merges a packed tree straight into this one, as merge(*unpack(packed))
  /// would, without building the temporary tree. The packed root's frame
  /// name is ignored. Malformed input is rejected whole: returns false and
  /// leaves this tree unchanged.
  bool merge_packed(std::span<const std::uint8_t> packed);

  /// Indented text rendering ("main / solver_loop / ... : ranks [...]").
  [[nodiscard]] std::string render() const;

  [[nodiscard]] const Node& root() const { return *root_; }

 private:
  std::unique_ptr<Node> root_;
};

}  // namespace lmon::tools::stat
