#include "comm/tree_node.hpp"

#include <utility>

#include "cluster/machine.hpp"

namespace lmon::comm {

TreeNode::TreeNode(cluster::Process& self, Hooks& hooks, const char* layer,
                   const char* noun, DialPolicy dial, std::uint32_t index,
                   std::optional<std::uint32_t> parent)
    : self_(self),
      hooks_(hooks),
      layer_(layer),
      noun_(noun),
      dial_(dial),
      index_(index),
      root_(!parent.has_value()),
      parent_(parent.value_or(index)) {}

void TreeNode::expect_child(std::uint32_t index, bool needs_up) {
  expected_.push_back(index);
  unregistered_.insert(index);
  if (needs_up) unreported_.insert(index);
}

void TreeNode::start(cluster::Port port) {
  if (!expected_.empty()) {
    const Status st = self_.listen(port, [this](cluster::ChannelPtr ch) {
      // A child link: route it, and wait for its registration.
      self_.set_channel_handler(
          ch,
          [this](const cluster::ChannelPtr& c, cluster::Message m) {
            hooks_.on_link_message(c, std::move(m));
          },
          [this](const cluster::ChannelPtr& c) {
            // Before ready a lost child fails the whole subtree; after it,
            // the layer decides what the loss means for its rounds.
            const bool was_ready = fired_;
            fail(Status(Rc::Esubcom, std::string(noun_) + " child lost"));
            for (const auto& [index, link] : children_) {
              if (link == c) {
                drop_child(index, was_ready);
                return;
              }
            }
          });
    });
    if (!st.is_ok()) {
      fail(st);
      return;
    }
  }
  if (root_) {
    linked_ = true;
    check_ready();
  } else {
    dial(dial_.retries);
  }
}

void TreeNode::dial(int attempts_left) {
  const Address to = hooks_.address_of(parent_);
  self_.connect(to.host, to.port, [this, attempts_left](
                                      Status st, cluster::ChannelPtr ch) {
    if (st.is_ok()) {
      link(parent_, std::move(ch), /*adopted=*/false);
      linked_ = true;
      check_ready();
      return;
    }
    if (attempts_left == 0) {
      fail(Status(Rc::Esubcom,
                  "cannot reach " + std::string(noun_) + " parent"));
      return;
    }
    count("connect_retries");
    if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
      tracer->instant(layer_ + ".connect_retry", layer_,
                      static_cast<int>(self_.node().id()), self_.pid(),
                      obs::kNoSpan,
                      "rank=" + std::to_string(index_) +
                          " left=" + std::to_string(attempts_left - 1));
    }
    self_.post(dial_.retry_delay(dial_.retries - attempts_left),
               [this, attempts_left] { dial(attempts_left - 1); });
  });
}

void TreeNode::link(std::uint32_t parent, cluster::ChannelPtr ch,
                    bool adopted) {
  parent_link_ = ch;
  parent_ = parent;
  self_.set_channel_handler(
      ch,
      [this](const cluster::ChannelPtr& c, cluster::Message m) {
        hooks_.on_link_message(c, std::move(m));
      },
      [this](const cluster::ChannelPtr&) {
        // Teardown, unless healing recovers from a post-ready parent death.
        parent_link_ = nullptr;
        if (heal_ && fired_ && !detached_) climb();
      });
  hooks_.on_linked(ch, adopted);
}

void TreeNode::add_child(std::uint32_t index, cluster::ChannelPtr ch) {
  children_[index] = std::move(ch);
  unregistered_.erase(index);
  check_ready();
}

void TreeNode::report_up(std::uint32_t index) {
  unreported_.erase(index);
  check_ready();
}

void TreeNode::check_ready() {
  if (fired_ || !linked_ || !unregistered_.empty() || !unreported_.empty()) {
    return;
  }
  fired_ = true;
  hooks_.on_ready(Status::ok());
}

void TreeNode::fail(Status st) {
  if (fired_) return;
  fired_ = true;
  hooks_.on_ready(std::move(st));
}

void TreeNode::lose_child(std::uint32_t index) {
  if (children_.count(index) != 0) drop_child(index, fired_);
}

void TreeNode::drop_child(std::uint32_t index, bool was_ready) {
  children_.erase(index);
  hooks_.on_child_lost(index, was_ready);
}

void TreeNode::climb() {
  if (climbing_ || detached_) return;
  climbing_ = true;
  via_.assign(1, parent_);
  count("heal.orphaned");
  if (obs::Tracer* tracer = self_.machine().tracer(); tracer != nullptr) {
    heal_span_ = tracer->begin_span(
        layer_ + ".heal", layer_, static_cast<int>(self_.node().id()),
        self_.pid(), hooks_.trace_parent(*tracer),
        "rank=" + std::to_string(index_) +
            " lost_parent=" + std::to_string(parent_));
  }
  hooks_.on_orphaned();
  chain_ = hooks_.ancestors_of(parent_);
  if (chain_.empty()) {
    give_up("root_dead");  // nothing above the lost root to heal onto
    return;
  }
  reattach(0, kHealConnectRetries);
}

void TreeNode::reattach(std::size_t hop, int attempts_left) {
  if (detached_) return;
  const std::uint32_t target = chain_[hop];
  const Address to = hooks_.address_of(target);
  self_.connect(to.host, to.port, [this, hop, attempts_left, target](
                                      Status st, cluster::ChannelPtr ch) {
    if (detached_) return;
    if (st.is_ok()) {
      adopt(target, std::move(ch));
      return;
    }
    if (attempts_left > 0) {
      count("heal.reattach_retries");
      self_.post(dial_.delay, [this, hop, attempts_left] {
        reattach(hop, attempts_left - 1);
      });
      return;
    }
    // This ancestor is dead too: the adopter learns about it, and the
    // climb goes on. Past the root there is nothing left - a dissolving
    // tree, not a failure to heal, so give up quietly.
    via_.push_back(target);
    if (hop + 1 == chain_.size()) {
      give_up("no_live_ancestor");
      return;
    }
    reattach(hop + 1, kHealConnectRetries);
  });
}

void TreeNode::adopt(std::uint32_t target, cluster::ChannelPtr ch) {
  climbing_ = false;
  count("heal.reattaches");
  if (obs::Tracer* tracer = self_.machine().tracer();
      tracer != nullptr && heal_span_ != obs::kNoSpan) {
    tracer->end_span(heal_span_, "adopted_by=" + std::to_string(target));
    heal_span_ = obs::kNoSpan;
  }
  link(target, std::move(ch), /*adopted=*/true);
}

void TreeNode::give_up(const char* reason) {
  climbing_ = false;
  count("heal.give_ups");
  if (obs::Tracer* tracer = self_.machine().tracer();
      tracer != nullptr && heal_span_ != obs::kNoSpan) {
    tracer->end_span(heal_span_, std::string("give_up=") + reason);
    heal_span_ = obs::kNoSpan;
  }
}

void TreeNode::count(const char* name) {
  if (self_.machine().metrics() == nullptr) return;
  self_.machine().count(layer_ + "." + name);
}

}  // namespace lmon::comm
