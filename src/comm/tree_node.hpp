// tree_node.hpp - the tree-link core under both overlays (ICCL and TBON).
//
// Both trees wire themselves the same way: every non-root node dials its
// parent (retrying while the parent boots), a bottom-up ready wave reports
// when a node's whole subtree is linked, a lost child is found by its
// channel, and - with healing on - an orphan whose parent died after ready
// climbs its ancestor chain until a live ancestor accepts it. TreeNode is
// that plumbing, written once. The layer above keeps its own wire (which
// frame registers, reports or re-attaches), its own costs and what a lost
// child or an adoption means for its rounds; it supplies those through
// Hooks.
//
// TreeNode posts nothing but its own retry waits, and every hook runs inside
// the event that caused it, so a layer's sends keep their simulated times.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/process.hpp"
#include "common/status.hpp"
#include "obs/trace.hpp"
#include "simkernel/time.hpp"

namespace lmon::comm {

/// Dial budget per ancestor during a heal climb. Ancestors have been up for
/// the whole session, so a refused connection after a few quick retries
/// means this one is dead too and the climb moves on.
inline constexpr int kHealConnectRetries = 3;

/// How a node dials its parent at start-up: `retries` retries after the
/// first refusal, the k-th one `delay << k` later, capped at `cap` (a
/// fixed delay when cap == delay). A heal climb retries every `delay`.
struct DialPolicy {
  int retries = 0;
  sim::Time delay = 0;
  sim::Time cap = 0;

  /// Wait before the retry that follows `used` earlier retries.
  [[nodiscard]] constexpr sim::Time retry_delay(int used) const {
    const sim::Time d = delay << (used < 8 ? used : 8);
    return d < cap ? d : cap;
  }
};

class TreeNode {
 public:
  /// Where a tree index listens.
  struct Address {
    std::string host;
    cluster::Port port = 0;
  };

  /// What the layer above supplies. Every hook runs inside the event that
  /// caused it.
  class Hooks {
   public:
    virtual ~Hooks() = default;
    [[nodiscard]] virtual Address address_of(std::uint32_t index) const = 0;
    /// Ancestors strictly above `index`, nearest first, the root last.
    [[nodiscard]] virtual std::vector<std::uint32_t> ancestors_of(
        std::uint32_t index) const = 0;
    /// Every inbound message on a tree link, parent or child.
    virtual void on_link_message(const cluster::ChannelPtr& ch,
                                 cluster::Message m) = 0;
    /// A parent link is up: the first one (`adopted` false) or one a heal
    /// climb reached. The layer sends its registration frame on it.
    virtual void on_linked(const cluster::ChannelPtr& parent,
                           bool adopted) = 0;
    /// The ready latch fired: ok, or the first error. Called once.
    virtual void on_ready(Status st) = 0;
    /// `child` is already out of the child table. `was_ready` is the latch
    /// state before the loss (a loss before ready also fails the latch).
    virtual void on_child_lost(std::uint32_t child, bool was_ready) = 0;
    /// A heal climb is starting; no dial has been made yet.
    virtual void on_orphaned() {}
    /// Parent span for the heal span.
    [[nodiscard]] virtual obs::SpanId trace_parent(
        obs::Tracer& tracer) const = 0;
  };

  /// `layer` prefixes every counter, span and instant ("iccl",
  /// "tbon"); `noun` names the tree in error messages ("fabric", "TBON").
  TreeNode(cluster::Process& self, Hooks& hooks, const char* layer,
           const char* noun, DialPolicy dial, std::uint32_t index,
           std::optional<std::uint32_t> parent);

  TreeNode(const TreeNode&) = delete;
  TreeNode& operator=(const TreeNode&) = delete;

  /// Before start(): a child whose registration ready waits for, and, when
  /// `needs_up`, whose subtree report too.
  void expect_child(std::uint32_t index, bool needs_up);
  /// Before start(): climb on a post-ready parent loss.
  void set_heal(bool on) { heal_ = on; }

  /// Listens on `port` when children are expected, then dials the parent
  /// (the root is linked at once).
  void start(cluster::Port port);
  /// A child registered on `ch`.
  void add_child(std::uint32_t index, cluster::ChannelPtr ch);
  /// A child reported its subtree ready.
  void report_up(std::uint32_t index);
  /// Drops a child (a graceful leave); a no-op for an unknown index.
  void lose_child(std::uint32_t index);
  /// Stops healing for good: no climb starts or continues.
  void detach() { detached_ = true; }

  [[nodiscard]] bool heal() const noexcept { return heal_; }
  [[nodiscard]] bool detached() const noexcept { return detached_; }
  /// The latch fired, with ok or with an error.
  [[nodiscard]] bool ready_fired() const noexcept { return fired_; }
  [[nodiscard]] bool climbing() const noexcept { return climbing_; }
  /// Current parent link (null at the root, and while it is down).
  [[nodiscard]] const cluster::ChannelPtr& parent() const noexcept {
    return parent_link_;
  }
  /// Index this node is linked up to: the topology parent until a heal
  /// climb moves it; the node's own index at the root.
  [[nodiscard]] std::uint32_t parent_index() const noexcept {
    return parent_;
  }
  /// Live child links by index (expected children plus adopted orphans).
  [[nodiscard]] const std::map<std::uint32_t, cluster::ChannelPtr>& children()
      const noexcept {
    return children_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& expected_children()
      const noexcept {
    return expected_;
  }
  /// Dead ancestors the last climb passed, the lost parent first.
  [[nodiscard]] const std::vector<std::uint32_t>& climb_via() const noexcept {
    return via_;
  }

 private:
  void dial(int attempts_left);
  void link(std::uint32_t parent, cluster::ChannelPtr ch, bool adopted);
  void check_ready();
  void fail(Status st);
  void drop_child(std::uint32_t index, bool was_ready);
  void climb();
  void reattach(std::size_t hop, int attempts_left);
  void adopt(std::uint32_t target, cluster::ChannelPtr ch);
  void give_up(const char* reason);
  void count(const char* name);

  cluster::Process& self_;
  Hooks& hooks_;
  std::string layer_;
  const char* noun_;
  DialPolicy dial_;
  std::uint32_t index_;
  bool root_;
  std::uint32_t parent_;
  cluster::ChannelPtr parent_link_;
  std::map<std::uint32_t, cluster::ChannelPtr> children_;
  std::vector<std::uint32_t> expected_;
  std::set<std::uint32_t> unregistered_;  ///< expected, not yet registered
  std::set<std::uint32_t> unreported_;    ///< needs_up, not yet reported
  bool linked_ = false;
  bool fired_ = false;
  bool heal_ = false;
  bool detached_ = false;
  bool climbing_ = false;
  std::vector<std::uint32_t> chain_;  ///< ancestors of the lost parent
  std::vector<std::uint32_t> via_;
  obs::SpanId heal_span_ = obs::kNoSpan;
};

}  // namespace lmon::comm
