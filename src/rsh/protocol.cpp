#include "rsh/protocol.hpp"

namespace lmon::rsh {

namespace {

ByteWriter begin(MsgType t) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(t));
  return w;
}

std::optional<ByteReader> open(const cluster::Message& m, MsgType expect) {
  ByteReader r(m.bytes);
  auto t = r.u32();
  if (!t || *t != static_cast<std::uint32_t>(expect)) return std::nullopt;
  return r;
}

}  // namespace

std::optional<MsgType> peek_type(const cluster::Message& msg) {
  ByteReader r(msg.bytes);
  auto t = r.u32();
  if (!t) return std::nullopt;
  if (*t < static_cast<std::uint32_t>(MsgType::ExecReq) ||
      *t > static_cast<std::uint32_t>(MsgType::TreeAck)) {
    return std::nullopt;
  }
  return static_cast<MsgType>(*t);
}

cluster::Message ExecReq::encode() const {
  ByteWriter w = begin(MsgType::ExecReq);
  w.str(executable);
  w.u32(static_cast<std::uint32_t>(args.size()));
  ByteSlice view;
  for (const auto& a : args) {
    if (a.slice() != nullptr && view.empty() && !a.slice()->empty()) {
      view = *a.slice();
      w.u32(static_cast<std::uint32_t>(view.size()) | kSharedArgBit);
    } else {
      w.str(a.view());
    }
  }
  return cluster::Message(std::move(w).take(), std::move(view));
}

std::optional<ExecReq> ExecReq::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::ExecReq);
  if (!r) return std::nullopt;
  ExecReq out;
  auto exe = r->str();
  auto n = r->u32();
  if (!exe || !n) return std::nullopt;
  out.executable = std::move(*exe);
  bool view_taken = false;
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto len = r->u32();
    if (!len) return std::nullopt;
    if ((*len & kSharedArgBit) != 0) {
      if (view_taken || (*len & ~kSharedArgBit) != m.view.size()) {
        return std::nullopt;
      }
      view_taken = true;
      out.args.emplace_back(m.view);
      continue;
    }
    auto bytes = r->raw_view(*len);
    if (!bytes) return std::nullopt;
    out.args.emplace_back(std::string(bytes->begin(), bytes->end()));
  }
  if (view_taken == m.view.empty()) return std::nullopt;
  return out;
}

cluster::Message ExecResp::encode() const {
  ByteWriter w = begin(MsgType::ExecResp);
  w.boolean(ok);
  w.str(error);
  w.i64(pid);
  return cluster::Message(std::move(w).take());
}

std::optional<ExecResp> ExecResp::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::ExecResp);
  if (!r) return std::nullopt;
  auto ok_f = r->boolean();
  auto err = r->str();
  auto pid = r->i64();
  if (!ok_f || !err || !pid) return std::nullopt;
  return ExecResp{*ok_f, std::move(*err), *pid};
}

cluster::Message TreeAck::encode() const {
  ByteWriter w = begin(MsgType::TreeAck);
  w.boolean(ok);
  w.str(error);
  w.str(agent_host);
  w.u32(static_cast<std::uint32_t>(daemons.size()));
  for (const auto& [host, pid] : daemons) {
    w.str(host);
    w.i64(pid);
  }
  return cluster::Message(std::move(w).take());
}

std::optional<TreeAck> TreeAck::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::TreeAck);
  if (!r) return std::nullopt;
  TreeAck out;
  auto ok_f = r->boolean();
  auto err = r->str();
  auto agent = r->str();
  auto n = r->u32();
  if (!ok_f || !err || !agent || !n) return std::nullopt;
  out.ok = *ok_f;
  out.error = std::move(*err);
  out.agent_host = std::move(*agent);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto host = r->str();
    auto pid = r->i64();
    if (!host || !pid) return std::nullopt;
    out.daemons.emplace_back(std::move(*host), *pid);
  }
  return out;
}

}  // namespace lmon::rsh
