#include "rm/protocol.hpp"

namespace lmon::rm {

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

cluster::Message finish(ByteWriter&& w) {
  return cluster::Message(std::move(w).take());
}

}  // namespace

std::optional<MsgType> peek_type(const cluster::Message& msg) {
  ByteReader r(msg.bytes);
  auto t = r.u32();
  if (!t) return std::nullopt;
  if (*t < 1 || *t > static_cast<std::uint32_t>(MsgType::JobFreeReq)) {
    return std::nullopt;
  }
  return static_cast<MsgType>(*t);
}

void write_task_desc(ByteWriter& w, const TaskDesc& t) {
  w.str(t.host);
  w.str(t.executable);
  w.i64(t.pid);
  w.i32(t.rank);
}

std::optional<TaskDesc> read_task_desc(ByteReader& r) {
  TaskDesc t;
  auto host = r.str();
  auto exe = r.str();
  auto pid = r.i64();
  auto rank = r.i32();
  if (!host || !exe || !pid || !rank) return std::nullopt;
  t.host = std::move(*host);
  t.executable = std::move(*exe);
  t.pid = *pid;
  t.rank = *rank;
  return t;
}

void write_alloc_node(ByteWriter& w, const AllocatedNode& n) {
  w.str(n.host);
  w.u32(n.index);
}

std::optional<AllocatedNode> read_alloc_node(ByteReader& r) {
  auto host = r.str();
  auto index = r.u32();
  if (!host || !index) return std::nullopt;
  return AllocatedNode{std::move(*host), *index};
}

std::optional<std::vector<TaskDesc>> read_task_descs(ByteReader& r) {
  // The smallest entry: two empty strings, pid and rank.
  return r.list(4 + 4 + 8 + 4, read_task_desc);
}

namespace {

void write_nodes(ByteWriter& w, std::span<const AllocatedNode> nodes) {
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (const auto& n : nodes) write_alloc_node(w, n);
}

std::optional<std::vector<AllocatedNode>> read_nodes(ByteReader& r) {
  return r.list(4 + 4, read_alloc_node);  // an empty host and the index
}

// AllocResp and JobInfoResp: one body, two type tags.
cluster::Message encode_job_nodes(MsgType t, const JobNodes& body) {
  ByteWriter w = begin(t);
  w.boolean(body.ok);
  w.str(body.error);
  w.u64(body.jobid);
  write_nodes(w, body.nodes);
  return finish(std::move(w));
}

template <typename Resp>
std::optional<Resp> decode_job_nodes(const cluster::Message& m, MsgType t) {
  auto r = open(m, t);
  if (!r) return std::nullopt;
  auto ok_f = r->boolean();
  auto err = r->str();
  auto job = r->u64();
  auto nodes = read_nodes(*r);
  if (!ok_f || !err || !job || !nodes) return std::nullopt;
  Resp out;
  out.ok = *ok_f;
  out.error = std::move(*err);
  out.jobid = *job;
  out.nodes = std::move(*nodes);
  return out;
}

}  // namespace

// --- AllocReq / AllocResp ----------------------------------------------------

cluster::Message AllocReq::encode() const {
  ByteWriter w = begin(MsgType::AllocReq);
  w.u32(nnodes);
  w.boolean(middleware);
  return finish(std::move(w));
}

std::optional<AllocReq> AllocReq::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::AllocReq);
  if (!r) return std::nullopt;
  auto n = r->u32();
  auto mw = r->boolean();
  if (!n || !mw) return std::nullopt;
  return AllocReq{*n, *mw};
}

cluster::Message AllocResp::encode() const {
  return encode_job_nodes(MsgType::AllocResp, *this);
}

std::optional<AllocResp> AllocResp::decode(const cluster::Message& m) {
  return decode_job_nodes<AllocResp>(m, MsgType::AllocResp);
}

// --- JobInfoReq / JobInfoResp ----------------------------------------------------

cluster::Message JobInfoReq::encode() const {
  ByteWriter w = begin(MsgType::JobInfoReq);
  w.u64(jobid);
  return finish(std::move(w));
}

std::optional<JobInfoReq> JobInfoReq::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::JobInfoReq);
  if (!r) return std::nullopt;
  auto job = r->u64();
  if (!job) return std::nullopt;
  return JobInfoReq{*job};
}

cluster::Message JobInfoResp::encode() const {
  return encode_job_nodes(MsgType::JobInfoResp, *this);
}

std::optional<JobInfoResp> JobInfoResp::decode(const cluster::Message& m) {
  return decode_job_nodes<JobInfoResp>(m, MsgType::JobInfoResp);
}

cluster::Message JobFreeReq::encode() const {
  ByteWriter w = begin(MsgType::JobFreeReq);
  w.u64(jobid);
  return finish(std::move(w));
}

std::optional<JobFreeReq> JobFreeReq::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::JobFreeReq);
  if (!r) return std::nullopt;
  auto job = r->u64();
  if (!job) return std::nullopt;
  return JobFreeReq{*job};
}

// --- HostList ------------------------------------------------------------------------

HostList::HostList() {
  static const auto empty = std::make_shared<const Bytes>(4, std::uint8_t{0});
  wire_ = ByteSlice(empty);
}

HostList HostList::pack(const std::vector<AllocatedNode>& nodes) {
  std::size_t size = 4;
  for (const auto& n : nodes) size += 4 + n.host.size();
  ByteWriter w(size);
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (const auto& n : nodes) w.str(n.host);
  return HostList(ByteSlice(std::make_shared<const Bytes>(std::move(w).take())),
                  static_cast<std::uint32_t>(nodes.size()));
}

std::optional<HostList> HostList::parse(ByteSlice wire) {
  thread_local LastView<std::uint32_t> last;  // the count of the last view
  const auto count = last.get(
      wire, [](const ByteSlice& view) -> std::optional<std::uint32_t> {
        ByteReader r(view.span());
        const auto count = r.u32();
        if (!count) return std::nullopt;
        for (std::uint32_t i = 0; i < *count; ++i) {
          if (!r.str_view()) return std::nullopt;
        }
        if (!r.exhausted()) return std::nullopt;
        return count;
      });
  if (!count) return std::nullopt;
  return HostList(std::move(wire), *count);
}

// --- TreeLaunchReq / Ack ------------------------------------------------------------

cluster::Message TreeLaunchReq::encode() const {
  return encode_subtree(nodes, seq);
}

cluster::Message TreeLaunchReq::encode_subtree(
    std::span<const AllocatedNode> subtree, std::uint32_t sub_seq) const {
  ByteWriter w = begin(MsgType::TreeLaunchReq);
  w.u64(jobid);
  w.u32(sub_seq);
  w.u8(static_cast<std::uint8_t>(mode));
  w.str(executable);
  w.u32(static_cast<std::uint32_t>(extra_args.size()));
  for (const auto& a : extra_args) w.str(a);
  w.u32(tasks_per_node);
  write_nodes(w, subtree);
  w.u16(fabric.port);
  w.u32(fabric.fanout);
  w.u32(fabric.total);
  w.str(fabric.fe_host);
  w.u16(fabric.fe_port);
  w.str(fabric.session);
  w.u8(static_cast<std::uint8_t>(fabric.topo_kind));
  w.u32(fabric.rndv_threshold);
  w.boolean(fabric.heal);
  w.u32(fabric.heal_grace_ms);
  w.u32(fabric.max_sessions);
  return cluster::Message(std::move(w).take(), hosts.wire());
}

std::optional<TreeLaunchReq> TreeLaunchReq::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::TreeLaunchReq);
  if (!r) return std::nullopt;
  TreeLaunchReq out;
  auto job = r->u64();
  auto seq_f = r->u32();
  auto mode_f = r->u8();
  auto exe = r->str();
  if (!job || !seq_f || !mode_f || !exe) return std::nullopt;
  out.jobid = *job;
  out.seq = *seq_f;
  out.mode = static_cast<LaunchMode>(*mode_f);
  out.executable = std::move(*exe);
  auto nargs = r->u32();
  if (!nargs) return std::nullopt;
  for (std::uint32_t i = 0; i < *nargs; ++i) {
    auto a = r->str();
    if (!a) return std::nullopt;
    out.extra_args.push_back(std::move(*a));
  }
  auto tpn = r->u32();
  auto nodes = read_nodes(*r);
  if (!tpn || !nodes) return std::nullopt;
  out.tasks_per_node = *tpn;
  out.nodes = std::move(*nodes);
  auto fport = r->u16();
  auto ffan = r->u32();
  auto ftotal = r->u32();
  auto fhost = r->str();
  auto ffeport = r->u16();
  auto fsess = r->str();
  auto ftopo = r->u8();
  auto frndv = r->u32();
  auto fheal = r->boolean();
  auto fheal_grace = r->u32();
  auto fmax_sessions = r->u32();
  if (!fport || !ffan || !ftotal || !fhost || !ffeport || !fsess || !ftopo ||
      !frndv || !fheal || !fheal_grace || !fmax_sessions || !r->exhausted()) {
    return std::nullopt;
  }
  const auto kind = comm::topology_kind_from_u8(*ftopo);
  if (!kind) return std::nullopt;
  // Every hop validates the host list it forwards and spawns from.
  auto hosts = HostList::parse(m.view);
  if (!hosts) return std::nullopt;
  out.hosts = std::move(*hosts);
  out.fabric.port = *fport;
  out.fabric.fanout = *ffan;
  out.fabric.total = *ftotal;
  out.fabric.fe_host = std::move(*fhost);
  out.fabric.fe_port = *ffeport;
  out.fabric.session = std::move(*fsess);
  out.fabric.topo_kind = *kind;
  out.fabric.rndv_threshold = *frndv;
  out.fabric.heal = *fheal;
  out.fabric.heal_grace_ms = *fheal_grace;
  out.fabric.max_sessions = *fmax_sessions;
  return out;
}

cluster::Message TreeLaunchAck::encode() const {
  ByteWriter w = begin(MsgType::TreeLaunchAck);
  w.u32(seq);
  w.boolean(ok);
  w.str(error);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) write_task_desc(w, e);
  return finish(std::move(w));
}

std::optional<TreeLaunchAck> TreeLaunchAck::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::TreeLaunchAck);
  if (!r) return std::nullopt;
  TreeLaunchAck out;
  auto seq_f = r->u32();
  auto ok_f = r->boolean();
  auto err = r->str();
  auto entries = read_task_descs(*r);
  if (!seq_f || !ok_f || !err || !entries) return std::nullopt;
  out.seq = *seq_f;
  out.ok = *ok_f;
  out.error = std::move(*err);
  out.entries = std::move(*entries);
  return out;
}

// --- TreeKillReq / Ack ---------------------------------------------------------------

cluster::Message TreeKillReq::encode() const {
  return encode_subtree(nodes, seq);
}

cluster::Message TreeKillReq::encode_subtree(
    std::span<const AllocatedNode> subtree, std::uint32_t sub_seq) const {
  ByteWriter w = begin(MsgType::TreeKillReq);
  w.u64(jobid);
  w.u32(sub_seq);
  w.u8(static_cast<std::uint8_t>(mode));
  w.str(session);
  write_nodes(w, subtree);
  return finish(std::move(w));
}

std::optional<TreeKillReq> TreeKillReq::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::TreeKillReq);
  if (!r) return std::nullopt;
  TreeKillReq out;
  auto job = r->u64();
  auto seq_f = r->u32();
  auto mode_f = r->u8();
  auto sess = r->str();
  auto nodes = read_nodes(*r);
  if (!job || !seq_f || !mode_f || !sess || !nodes) return std::nullopt;
  out.jobid = *job;
  out.seq = *seq_f;
  out.mode = static_cast<LaunchMode>(*mode_f);
  out.session = std::move(*sess);
  out.nodes = std::move(*nodes);
  return out;
}

cluster::Message TreeKillAck::encode() const {
  ByteWriter w = begin(MsgType::TreeKillAck);
  w.u32(seq);
  w.boolean(ok);
  w.u32(killed);
  return finish(std::move(w));
}

std::optional<TreeKillAck> TreeKillAck::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::TreeKillAck);
  if (!r) return std::nullopt;
  auto seq_f = r->u32();
  auto ok_f = r->boolean();
  auto killed = r->u32();
  if (!seq_f || !ok_f || !killed) return std::nullopt;
  return TreeKillAck{*seq_f, *ok_f, *killed};
}

// --- LaunchDone / KillDaemons -----------------------------------------------------------

cluster::Message LaunchDone::encode() const {
  ByteWriter w = begin(MsgType::LaunchDone);
  w.boolean(ok);
  w.str(error);
  w.u64(jobid);
  w.u32(static_cast<std::uint32_t>(daemons.size()));
  for (const auto& d : daemons) write_task_desc(w, d);
  return finish(std::move(w));
}

std::optional<LaunchDone> LaunchDone::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::LaunchDone);
  if (!r) return std::nullopt;
  LaunchDone out;
  auto ok_f = r->boolean();
  auto err = r->str();
  auto job = r->u64();
  auto daemons = read_task_descs(*r);
  if (!ok_f || !err || !job || !daemons) return std::nullopt;
  out.ok = *ok_f;
  out.error = std::move(*err);
  out.jobid = *job;
  out.daemons = std::move(*daemons);
  return out;
}

cluster::Message KillDaemons::encode() const {
  ByteWriter w = begin(MsgType::KillDaemons);
  return finish(std::move(w));
}

std::optional<KillDaemons> KillDaemons::decode(const cluster::Message& m) {
  auto r = open(m, MsgType::KillDaemons);
  if (!r) return std::nullopt;
  return KillDaemons{};
}

}  // namespace lmon::rm
