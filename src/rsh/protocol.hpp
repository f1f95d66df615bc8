// protocol.hpp - wire messages for the rsh substrate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/message.hpp"
#include "cluster/types.hpp"
#include "common/argparse.hpp"
#include "common/bytes.hpp"

namespace lmon::rsh {

enum class MsgType : std::uint32_t {
  ExecReq = 100,
  ExecResp,
  TreeAck,
};

std::optional<MsgType> peek_type(const cluster::Message& msg);

/// "rsh <host> <exe> <args...>": asks the remote rshd to spawn a command.
///
/// Wire form: the executable, a u32 entry count, then each entry as a u32
/// length and its bytes. The first entry that views a shared buffer (a
/// launch's host list) travels as the frame's Message::view instead: its
/// length has kSharedArgBit set and its bytes follow the header, so the
/// frame is exactly as long as with the bytes copied in, and the receiver's
/// entry views the sender's buffer.
struct ExecReq {
  static constexpr std::uint32_t kSharedArgBit = 1u << 31;

  std::string executable;
  Argv args;
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<ExecReq> decode(const cluster::Message& m);
};

struct ExecResp {
  bool ok = false;
  std::string error;
  cluster::Pid pid = cluster::kInvalidPid;
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<ExecResp> decode(const cluster::Message& m);
};

/// Aggregated subtree result reported upward by tree-launch agents.
struct TreeAck {
  bool ok = false;
  std::string error;
  /// Hostname of the reporting agent (its chunk's first host). Lets the
  /// parent correlate the ack with the rsh session that launched that
  /// agent, so a session lost *before* its ack is detectably a dead
  /// subtree (fault injection: a mid-tree agent killed during bootstrap).
  std::string agent_host;
  /// (host, pid) of every daemon in the reporting subtree.
  std::vector<std::pair<std::string, cluster::Pid>> daemons;
  [[nodiscard]] cluster::Message encode() const;
  static std::optional<TreeAck> decode(const cluster::Message& m);
};

}  // namespace lmon::rsh
