// channel.hpp - reliable, ordered, bidirectional message channel (TCP-like).
//
// LMONP, the RM control protocol and the TBON all run over these. A channel
// connects exactly two processes; per-direction FIFO ordering is enforced
// even though per-message latency is jittered, matching TCP semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/message.hpp"
#include "cluster/types.hpp"
#include "simkernel/time.hpp"

namespace lmon::cluster {

class Machine;
class Process;

class Channel : public std::enable_shared_from_this<Channel> {
 public:
  using Id = std::uint64_t;

  Channel(Id id, Machine& machine, Pid a, NodeId a_node, Pid b, NodeId b_node);

  [[nodiscard]] Id id() const noexcept { return id_; }
  [[nodiscard]] bool is_open() const noexcept { return open_; }

  /// The other endpoint's pid as seen from `self`.
  [[nodiscard]] Pid peer_of(Pid self) const;

  /// Sends `msg` from endpoint `self` to its peer. Transfer time is charged
  /// by the machine's network model; delivery invokes the peer program's
  /// on_message. Messages sent on a closed channel are silently dropped
  /// (like writing to a socket racing with close - the tools must tolerate
  /// it, and the failure-injection tests exercise exactly this).
  void send(Pid self, Message msg);

  /// Closes the channel; the peer gets on_channel_closed after one latency.
  void close(Pid closer);

 private:
  friend class Machine;

  struct End {
    Pid pid = kInvalidPid;
    NodeId node = kInvalidNode;
    sim::Time last_arrival = 0;  ///< FIFO watermark for this direction
    /// Metric names for traffic *into* this end, built on the first send
    /// with metrics attached instead of on every send.
    std::string link_bytes_metric;
    std::string channel_messages_metric;
  };

  End& end_for(Pid pid);
  End& other_end(Pid pid);

  Id id_;
  Machine& machine_;
  End a_, b_;
  bool open_ = true;
};

using ChannelPtr = std::shared_ptr<Channel>;

}  // namespace lmon::cluster
