// Unit tests for the RM control protocol encode/decode layer.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rm/apai.hpp"
#include "rm/protocol.hpp"
#include "simkernel/rng.hpp"
#include "tbon/packet.hpp"
#include "tools/jobsnap/format.hpp"

namespace lmon::rm {
namespace {

TEST(RmProtocol, PeekTypeIdentifiesFrames) {
  EXPECT_EQ(peek_type(AllocReq{4, false}.encode()), MsgType::AllocReq);
  EXPECT_EQ(peek_type(JobInfoReq{7}.encode()), MsgType::JobInfoReq);
  EXPECT_EQ(peek_type(KillDaemons{}.encode()), MsgType::KillDaemons);
  cluster::Message junk;
  junk.bytes = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(peek_type(junk).has_value());
  cluster::Message empty;
  EXPECT_FALSE(peek_type(empty).has_value());
}

TEST(RmProtocol, AllocRoundTrip) {
  AllocReq req{16, true};
  auto back = AllocReq::decode(req.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->nnodes, 16u);
  EXPECT_TRUE(back->middleware);

  AllocResp resp;
  resp.ok = true;
  resp.jobid = 42;
  resp.nodes = {{"atlas1", 0}, {"atlas2", 1}};
  auto resp_back = AllocResp::decode(resp.encode());
  ASSERT_TRUE(resp_back.has_value());
  EXPECT_TRUE(resp_back->ok);
  EXPECT_EQ(resp_back->jobid, 42u);
  ASSERT_EQ(resp_back->nodes.size(), 2u);
  EXPECT_EQ(resp_back->nodes[1].host, "atlas2");
  EXPECT_EQ(resp_back->nodes[1].index, 1u);
}

std::vector<std::string> hosts_of(const HostList& list) {
  std::vector<std::string> out;
  list.for_each([&out](std::string_view h) { out.emplace_back(h); });
  return out;
}

TreeLaunchReq sample_launch_req() {
  TreeLaunchReq req;
  req.jobid = 9;
  req.seq = 77;
  req.mode = LaunchMode::Daemons;
  req.executable = "stat_be";
  req.extra_args = {"--a=1", "--b=two"};
  req.tasks_per_node = 8;
  req.nodes = {{"atlas3", 2}, {"atlas4", 3}};
  req.hosts = HostList::pack(
      {{"atlas1", 0}, {"atlas2", 1}, {"atlas3", 2}, {"atlas4", 3}});
  req.fabric.port = 7100;
  req.fabric.fanout = 32;
  req.fabric.total = 4;
  req.fabric.fe_host = "atlas-fe";
  req.fabric.fe_port = 7050;
  req.fabric.session = "s0p1";
  req.fabric.topo_kind = comm::TopologyKind::Binomial;
  req.fabric.rndv_threshold = 524288;
  req.fabric.heal = true;
  req.fabric.heal_grace_ms = 250;
  req.fabric.max_sessions = 6;
  return req;
}

TEST(RmProtocol, TreeLaunchReqRoundTrip) {
  const TreeLaunchReq req = sample_launch_req();
  auto back = TreeLaunchReq::decode(req.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->jobid, 9u);
  EXPECT_EQ(back->seq, 77u);
  EXPECT_EQ(back->mode, LaunchMode::Daemons);
  EXPECT_EQ(back->executable, "stat_be");
  EXPECT_EQ(back->extra_args, req.extra_args);
  EXPECT_EQ(back->tasks_per_node, 8u);
  ASSERT_EQ(back->nodes.size(), 2u);
  EXPECT_EQ(back->nodes[0].host, "atlas3");
  EXPECT_EQ(back->hosts.size(), 4u);
  EXPECT_EQ(hosts_of(back->hosts),
            (std::vector<std::string>{"atlas1", "atlas2", "atlas3", "atlas4"}));
  EXPECT_EQ(back->fabric.port, 7100);
  EXPECT_EQ(back->fabric.fanout, 32u);
  EXPECT_EQ(back->fabric.total, 4u);
  EXPECT_EQ(back->fabric.fe_host, "atlas-fe");
  EXPECT_EQ(back->fabric.fe_port, 7050);
  EXPECT_EQ(back->fabric.session, "s0p1");
  EXPECT_EQ(back->fabric.topo_kind, comm::TopologyKind::Binomial);
  EXPECT_EQ(back->fabric.rndv_threshold, 524288u);
  EXPECT_TRUE(back->fabric.heal);
  EXPECT_EQ(back->fabric.heal_grace_ms, 250u);
  EXPECT_EQ(back->fabric.max_sessions, 6u);
}

TEST(RmProtocol, TreeLaunchReqKeepsTheFlatWireSize) {
  // The host list rides as the frame's view, but the frame must cost what
  // the flat layout (hosts copied in after the node list) costs.
  const auto msg = sample_launch_req().encode();
  const std::size_t header = 4 + 8 + 4 + 1 + (4 + 7) +          // type..exe
                             4 + (4 + 5) + (4 + 7) + 4 +          // args, tpn
                             4 + 2 * (4 + 6 + 4) +                // nodes
                             2 + 4 + 4 + (4 + 8) + 2 + (4 + 4) +  // fabric
                             1 + 4 + 1 + 4 + 4;
  const std::size_t host_list = 4 + 4 * (4 + 6);
  EXPECT_EQ(msg.bytes.size(), header);
  EXPECT_EQ(msg.view.size(), host_list);
  EXPECT_EQ(msg.size(), 178u);
}

TEST(RmProtocol, TreeLaunchReqRejectsMalformedHostLists) {
  const auto good = sample_launch_req().encode();
  auto decodes_with = [&good](Bytes wire) {
    cluster::Message m = good;
    m.view = ByteSlice(std::make_shared<const Bytes>(std::move(wire)));
    return TreeLaunchReq::decode(m).has_value();
  };
  auto list = [](std::uint32_t count, std::vector<std::string> hosts) {
    ByteWriter w;
    w.u32(count);
    for (const auto& h : hosts) w.str(h);
    return std::move(w).take();
  };
  ASSERT_TRUE(decodes_with(list(2, {"a", "b"})));
  // The count promises more hosts than follow.
  EXPECT_FALSE(decodes_with(list(3, {"a", "b"})));
  // The last host's length prefix runs past the end.
  Bytes truncated = list(2, {"a", "bcd"});
  truncated.pop_back();
  EXPECT_FALSE(decodes_with(truncated));
  // Bytes left over after the last host.
  Bytes trailing = list(2, {"a", "b"});
  trailing.push_back(0);
  EXPECT_FALSE(decodes_with(trailing));
  // No host list at all.
  EXPECT_FALSE(decodes_with({}));
}

Bytes host_wire(std::uint32_t count, const std::vector<std::string>& hosts) {
  ByteWriter w;
  w.u32(count);
  for (const auto& h : hosts) w.str(h);
  return std::move(w).take();
}

ByteSlice shared(Bytes b) {
  return ByteSlice(std::make_shared<const Bytes>(std::move(b)));
}

TEST(HostListParse, RepeatParseOfAnAcceptedViewIsAccepted) {
  const ByteSlice wire = shared(host_wire(3, {"a", "bb", "ccc"}));
  for (int i = 0; i < 3; ++i) {
    const auto list = HostList::parse(wire);
    ASSERT_TRUE(list.has_value());
    EXPECT_EQ(list->size(), 3u);
    EXPECT_EQ(hosts_of(*list), (std::vector<std::string>{"a", "bb", "ccc"}));
    EXPECT_EQ(list->wire().buffer(), wire.buffer());
  }
}

TEST(HostListParse, ShorterViewsOfAnAcceptedBufferAreStillRejected) {
  const ByteSlice wire = shared(host_wire(2, {"a", "bcd"}));
  ASSERT_TRUE(HostList::parse(wire).has_value());
  // Truncated: the last host's length runs past the end of the view.
  EXPECT_FALSE(HostList::parse(wire.sub(0, wire.size() - 1)).has_value());
  // The count alone: it promises hosts the view does not hold.
  EXPECT_FALSE(HostList::parse(wire.sub(0, 4)).has_value());
  // The same length at another start.
  EXPECT_FALSE(HostList::parse(wire.sub(1, wire.size() - 1)).has_value());
  EXPECT_TRUE(HostList::parse(wire).has_value());
}

TEST(HostListParse, EqualContentSecondBufferIsValidatedOnItsOwn) {
  const Bytes good = host_wire(2, {"a", "b"});
  const ByteSlice first = shared(good);
  ASSERT_TRUE(HostList::parse(first).has_value());
  ByteSlice twin = shared(good);
  auto again = HostList::parse(twin);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->wire().buffer(), twin.buffer());
  // A buffer of the same length with a bad count is rejected, also once
  // the last accepted buffer, which it could be mistaken for, is gone.
  Bytes bad = good;
  bad[0] = 9;
  EXPECT_FALSE(HostList::parse(shared(bad)).has_value());
  twin = ByteSlice();
  again.reset();
  EXPECT_FALSE(HostList::parse(shared(bad)).has_value());
}

TEST(RmProtocol, ForwardedSubRequestSharesTheHostBuffer) {
  const auto frame = sample_launch_req().encode();
  const auto hop = TreeLaunchReq::decode(frame);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->hosts.wire().buffer(), frame.view.buffer());

  // What a node daemon sends its child: nodes[1..] under a fresh seq.
  const auto sub = hop->encode_subtree(std::span(hop->nodes).subspan(1), 5);
  EXPECT_EQ(sub.view.buffer(), frame.view.buffer());
  const auto child = TreeLaunchReq::decode(sub);
  ASSERT_TRUE(child.has_value());
  EXPECT_EQ(child->seq, 5u);
  ASSERT_EQ(child->nodes.size(), 1u);
  EXPECT_EQ(child->nodes[0].host, "atlas4");
  EXPECT_EQ(child->hosts.size(), 4u);
  EXPECT_EQ(child->fabric.session, "s0p1");
}

TEST(RmProtocol, TreeLaunchAckRoundTrip) {
  TreeLaunchAck ack;
  ack.seq = 5;
  ack.ok = false;
  ack.error = "spawn failed on atlas9";
  ack.entries = {{"atlas9", "stat_be", 555, 8}};
  auto back = TreeLaunchAck::decode(ack.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 5u);
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error, "spawn failed on atlas9");
  ASSERT_EQ(back->entries.size(), 1u);
  EXPECT_EQ(back->entries[0], ack.entries[0]);
}

TEST(RmProtocol, KillRoundTrips) {
  TreeKillReq req;
  req.jobid = 3;
  req.seq = 11;
  req.mode = LaunchMode::Daemons;
  req.session = "s2p9";
  req.nodes = {{"atlas1", 0}};
  auto back = TreeKillReq::decode(req.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->session, "s2p9");

  req.nodes.push_back({"atlas2", 1});
  auto sub = TreeKillReq::decode(
      req.encode_subtree(std::span(req.nodes).subspan(1), 12));
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->seq, 12u);
  ASSERT_EQ(sub->nodes.size(), 1u);
  EXPECT_EQ(sub->nodes[0].host, "atlas2");
  EXPECT_EQ(sub->session, "s2p9");

  TreeKillAck ack{11, true, 16};
  auto aback = TreeKillAck::decode(ack.encode());
  ASSERT_TRUE(aback.has_value());
  EXPECT_EQ(aback->killed, 16u);
}

TEST(RmProtocol, LaunchDoneRoundTrip) {
  LaunchDone done;
  done.ok = true;
  done.jobid = 12;
  done.daemons = {{"atlas1", "jobsnap_be", 700, 0},
                  {"atlas2", "jobsnap_be", 701, 1}};
  auto back = LaunchDone::decode(done.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->jobid, 12u);
  EXPECT_EQ(back->daemons, done.daemons);
}

TEST(RmProtocol, CrossDecodeRejected) {
  // Decoding a frame as a different message type must fail cleanly.
  auto msg = AllocReq{4, false}.encode();
  EXPECT_FALSE(JobInfoReq::decode(msg).has_value());
  EXPECT_FALSE(TreeLaunchReq::decode(msg).has_value());
  EXPECT_FALSE(LaunchDone::decode(msg).has_value());
}

TEST(Decoders, CorruptElementCountFailsOnTheBytesNotInTheAllocator) {
  // Each decoder's fields up to an element count, that count 0xFFFFFFFF,
  // and no elements: the decode must fail, not try to reserve 4 G of them.
  struct Case {
    std::string name;
    std::function<void(ByteWriter&)> header;
    std::function<bool(const Bytes&)> decodes;
  };
  const auto rm_decoder = [](auto decode) {
    return [decode](const Bytes& b) {
      cluster::Message m;
      m.bytes = b;
      return decode(m).has_value();
    };
  };
  const auto job_nodes = [](MsgType t) {
    return [t](ByteWriter& w) {
      w.u32(static_cast<std::uint32_t>(t));
      w.boolean(true);
      w.str("");
      w.u64(1);
    };
  };
  const std::vector<Case> cases = {
      {"AllocResp", job_nodes(MsgType::AllocResp),
       rm_decoder(AllocResp::decode)},
      {"JobInfoResp", job_nodes(MsgType::JobInfoResp),
       rm_decoder(JobInfoResp::decode)},
      {"TreeLaunchAck",
       [](ByteWriter& w) {
         w.u32(static_cast<std::uint32_t>(MsgType::TreeLaunchAck));
         w.u32(0);
         w.boolean(true);
         w.str("");
       },
       rm_decoder(TreeLaunchAck::decode)},
      {"TreeKillReq",
       [](ByteWriter& w) {
         w.u32(static_cast<std::uint32_t>(MsgType::TreeKillReq));
         w.u64(1);
         w.u32(0);
         w.u8(1);
         w.str("s");
       },
       rm_decoder(TreeKillReq::decode)},
      {"LaunchDone", job_nodes(MsgType::LaunchDone),
       rm_decoder(LaunchDone::decode)},
      {"decode_proctable", [](ByteWriter&) {},
       [](const Bytes& b) { return apai::decode_proctable(b).has_value(); }},
      {"tbon::Packet",
       [](ByteWriter& w) {
         w.u8(0);   // kind
         w.u32(0);  // reserved
         w.u32(1);  // stream
         w.u32(0);  // tag
         w.u32(0);  // filter
         w.i32(0);  // node index
       },
       [](const Bytes& b) {
         cluster::Message m;
         m.bytes = b;
         return tbon::Packet::decode(m).has_value();
       }},
      {"decode_snapshots", [](ByteWriter&) {},
       [](const Bytes& b) {
         return tools::jobsnap::decode_snapshots(b).has_value();
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ByteWriter w;
    c.header(w);
    w.u32(0xFFFFFFFFu);
    const Bytes corrupt = std::move(w).take();
    bool decoded = true;
    EXPECT_NO_THROW(decoded = c.decodes(corrupt));
    EXPECT_FALSE(decoded);
  }
}

// Property: decoding random byte soup never crashes and mostly fails.
class RmFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RmFuzzTest, RandomBytesDecodeSafely) {
  sim::Rng rng(GetParam() * 911 + 1);
  cluster::Message m;
  m.bytes.resize(rng.next_below(128));
  for (auto& b : m.bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  // None of these may crash; results are simply optional.
  (void)AllocReq::decode(m);
  (void)AllocResp::decode(m);
  (void)JobInfoReq::decode(m);
  (void)JobInfoResp::decode(m);
  (void)TreeLaunchReq::decode(m);
  (void)TreeLaunchAck::decode(m);
  (void)TreeKillReq::decode(m);
  (void)TreeKillAck::decode(m);
  (void)LaunchDone::decode(m);
  (void)peek_type(m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace lmon::rm
