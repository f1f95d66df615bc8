// Integration tests for the ICCL eager/rendezvous protocol switch, driven
// through a raw Iccl harness (no FE/RM session): one daemon per node wires
// the fabric straight from bootstrap argv, which lets the tests permute the
// rank->node placement, tap the wire-frame sequence, and kill daemons
// mid-collective deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "comm/bootstrap.hpp"
#include "core/be_api.hpp"
#include "core/fe_api.hpp"
#include "core/iccl.hpp"
#include "obs/metrics.hpp"
#include "tests/flight_check.hpp"
#include "tests/test_util.hpp"

namespace lmon::core {
namespace {

using testing::TestCluster;

struct FrameEvent {
  std::uint32_t observer;  ///< rank that received the frame
  Iccl::Kind kind;
  std::uint32_t tag;
  std::uint32_t src;
  std::size_t bytes;
};

struct Shared {
  std::vector<FrameEvent> frames;
  std::map<std::uint32_t, Bytes> bcast_delivered;   // rank -> last payload
  /// rank -> tag -> payload (for rounds that overlap in flight).
  std::map<std::uint32_t, std::map<std::uint32_t, Bytes>> bcast_by_tag;
  /// rank -> tag -> address of the delivered buffer (zero-copy checks).
  std::map<std::uint32_t, std::map<std::uint32_t, const std::uint8_t*>>
      bcast_addr;
  std::map<std::uint32_t, Bytes> scatter_delivered; // rank -> part
  /// tag -> rank-sorted entries delivered at the root's gather handler.
  std::map<std::uint32_t, std::vector<std::pair<std::uint32_t, Bytes>>>
      gather_by_tag;
  std::map<std::uint32_t, Iccl*> iccls;             // rank -> live instance
  int ready = 0;
  bool bind_scatter = true;  ///< false leaves session 0's scatter unbound
};

class RawIcclDaemon : public cluster::Program {
 public:
  explicit RawIcclDaemon(Shared* sh) : sh_(sh) {}
  [[nodiscard]] std::string_view name() const override { return "raw_iccl"; }

  void on_start(cluster::Process& self) override {
    auto params = comm::parse_bootstrap(self.args(), self.node().hostname());
    ASSERT_TRUE(params.has_value());
    iccl_ = std::make_unique<Iccl>(self, std::move(*params));
    const std::uint32_t rank = iccl_->rank();
    iccl_->set_keyed_frame_tap([this, rank](Iccl::Kind kind, StreamKey key,
                                            std::uint32_t src,
                                            std::size_t bytes) {
      sh_->frames.push_back(FrameEvent{rank, kind, key.tag, src, bytes});
    });
    Iccl::SessionHandlers handlers;
    handlers.on_bcast = [this, rank](std::uint32_t tag, const Bytes& data) {
      sh_->bcast_delivered[rank] = data;
      sh_->bcast_by_tag[rank][tag] = data;
      sh_->bcast_addr[rank][tag] = data.data();
    };
    if (sh_->bind_scatter) {
      handlers.on_scatter = [this, rank](std::uint32_t, const Bytes& data) {
        sh_->scatter_delivered[rank] = data;
      };
    }
    handlers.on_gather =
        [this](std::uint32_t tag,
               std::vector<std::pair<std::uint32_t, Bytes>> entries) {
          sh_->gather_by_tag[tag] = std::move(entries);
        };
    iccl_->bind_session(0, std::move(handlers));
    sh_->iccls[rank] = iccl_.get();
    iccl_->start([this](Status st) {
      if (st.is_ok()) sh_->ready += 1;
    });
  }

 private:
  Shared* sh_;
  std::unique_ptr<Iccl> iccl_;
};

/// Spawns one raw daemon per rank; rank r runs on node `placement[r]`, so
/// tests can make the rank order disagree with the node order. Returns the
/// spawned pids in rank order.
std::vector<cluster::Pid> wire_fabric(TestCluster& tc, Shared& sh,
                                      const comm::TopologySpec& topo,
                                      const std::vector<int>& placement,
                                      std::uint32_t rndv_threshold) {
  comm::BootstrapSpec spec;
  spec.size = static_cast<std::uint32_t>(placement.size());
  spec.topology = topo;
  spec.port = cluster::kToolFabricBasePort;
  spec.session = "raw";
  spec.rndv_threshold = rndv_threshold;
  for (int node : placement) {
    spec.hosts.push_back(tc.machine.compute_node(node).hostname());
  }
  std::vector<cluster::Pid> pids;
  for (std::uint32_t r = 0; r < spec.size; ++r) {
    cluster::SpawnOptions opts;
    opts.executable = "raw_iccl";
    opts.args = comm::bootstrap_args(spec, r);
    auto res = tc.machine.compute_node(placement[r])
                   .spawn(std::make_unique<RawIcclDaemon>(&sh),
                          std::move(opts));
    EXPECT_TRUE(res.is_ok());
    pids.push_back(res.value);
  }
  return pids;
}

std::vector<int> identity_placement(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  return p;
}

int count_frames(const Shared& sh, std::uint32_t observer, Iccl::Kind kind) {
  int c = 0;
  for (const auto& f : sh.frames) {
    if (f.observer == observer && f.kind == kind) ++c;
  }
  return c;
}

constexpr std::uint32_t kEagerOnly = 0xffffffffu;
constexpr std::uint32_t kRndvAlways = 1;
constexpr std::uint32_t kChunk = 64 * 1024;  // CostModel default

TEST(IcclProtocol, SmallPayloadStaysEagerOnTheWire) {
  const int n = 7;
  TestCluster tc(n);
  Shared sh;
  wire_fabric(tc, sh, {comm::TopologyKind::KAry, 2}, identity_placement(n),
              256 * 1024);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  sh.frames.clear();
  sh.iccls[0]->broadcast(7, Bytes(512, 0xAA));
  ASSERT_TRUE(tc.run_until(
      [&] { return static_cast<int>(sh.bcast_delivered.size()) == n; }));

  for (std::uint32_t r = 1; r < static_cast<std::uint32_t>(n); ++r) {
    EXPECT_EQ(count_frames(sh, r, Iccl::Kind::Bcast), 1) << "rank " << r;
    EXPECT_EQ(count_frames(sh, r, Iccl::Kind::RndvRts), 0) << "rank " << r;
    EXPECT_EQ(count_frames(sh, r, Iccl::Kind::RndvChunk), 0) << "rank " << r;
    EXPECT_EQ(sh.bcast_delivered[r], Bytes(512, 0xAA));
  }
  EXPECT_EQ(count_frames(sh, 0, Iccl::Kind::RndvCts), 0);
}

TEST(IcclProtocol, LargePayloadRunsRtsCtsChunkSequence) {
  const int n = 7;
  const std::size_t payload_bytes = 3 * kChunk + 1000;  // 4 chunks
  TestCluster tc(n);
  Shared sh;
  wire_fabric(tc, sh, {comm::TopologyKind::KAry, 2}, identity_placement(n),
              64 * 1024);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  sh.frames.clear();
  Bytes payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  sh.iccls[0]->broadcast(9, payload);
  ASSERT_TRUE(tc.run_until(
      [&] { return static_cast<int>(sh.bcast_delivered.size()) == n; }));

  // Every non-root rank saw exactly one RTS, then its chunks in sequence
  // order - and never a full-payload eager frame.
  for (std::uint32_t r = 1; r < static_cast<std::uint32_t>(n); ++r) {
    EXPECT_EQ(count_frames(sh, r, Iccl::Kind::Bcast), 0) << "rank " << r;
    EXPECT_EQ(count_frames(sh, r, Iccl::Kind::RndvRts), 1) << "rank " << r;
    EXPECT_EQ(count_frames(sh, r, Iccl::Kind::RndvChunk), 4) << "rank " << r;
    bool saw_rts = false;
    std::size_t chunk_bytes = 0;
    for (const auto& f : sh.frames) {
      if (f.observer != r) continue;
      if (f.kind == Iccl::Kind::RndvRts) saw_rts = true;
      if (f.kind == Iccl::Kind::RndvChunk) {
        EXPECT_TRUE(saw_rts) << "chunk before RTS at rank " << r;
        chunk_bytes += f.bytes;
      }
    }
    EXPECT_EQ(chunk_bytes, payload_bytes) << "rank " << r;
    EXPECT_EQ(sh.bcast_delivered[r], payload) << "rank " << r;
  }
  // Interior ranks collected one CTS per child before streaming; the root
  // has two children in a 7-rank binary tree.
  EXPECT_EQ(count_frames(sh, 0, Iccl::Kind::RndvCts), 2);
  // Chunk sequence numbers arrive in order at every rank.
  std::map<std::uint32_t, std::uint32_t> next_seq;
  for (const auto& f : sh.frames) {
    if (f.kind != Iccl::Kind::RndvChunk) continue;
    EXPECT_EQ(f.tag, 9u);
  }
}

class IcclProtocolTopology
    : public ::testing::TestWithParam<comm::TopologySpec> {};

TEST_P(IcclProtocolTopology, RendezvousDeliversIdenticalBytesEverywhere) {
  const int n = 12;
  TestCluster tc(n);
  Shared sh;
  wire_fabric(tc, sh, GetParam(), identity_placement(n), kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  Bytes payload(2 * kChunk + 77);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i ^ (i >> 7));
  }
  sh.iccls[0]->broadcast(3, payload);
  ASSERT_TRUE(tc.run_until(
      [&] { return static_cast<int>(sh.bcast_delivered.size()) == n; }));
  for (const auto& [rank, data] : sh.bcast_delivered) {
    EXPECT_EQ(data, payload) << "rank " << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, IcclProtocolTopology,
    ::testing::Values(comm::TopologySpec{comm::TopologyKind::KAry, 2},
                      comm::TopologySpec{comm::TopologyKind::KAry, 4},
                      comm::TopologySpec{comm::TopologyKind::Binomial, 0},
                      comm::TopologySpec{comm::TopologyKind::Flat, 0}),
    [](const ::testing::TestParamInfo<comm::TopologySpec>& pinfo) {
      std::string name = pinfo.param.to_string();
      for (char& c : name) {
        if (c == ':' || c == '-') c = '_';
      }
      return name;
    });

TEST(IcclProtocol, EmptyBroadcastUnderRendezvousThresholdStaysEager) {
  const int n = 5;
  TestCluster tc(n);
  Shared sh;
  wire_fabric(tc, sh, {comm::TopologyKind::KAry, 2}, identity_placement(n),
              kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  sh.frames.clear();
  sh.iccls[0]->broadcast(1, {});
  ASSERT_TRUE(tc.run_until(
      [&] { return static_cast<int>(sh.bcast_delivered.size()) == n; }));
  for (std::uint32_t r = 1; r < static_cast<std::uint32_t>(n); ++r) {
    EXPECT_EQ(count_frames(sh, r, Iccl::Kind::Bcast), 1);
    EXPECT_EQ(count_frames(sh, r, Iccl::Kind::RndvRts), 0);
    EXPECT_TRUE(sh.bcast_delivered[r].empty());
  }
}

TEST(IcclProtocol, MidRendezvousChildDeathDoesNotStallSurvivors) {
  // 7-rank binary tree: rank 1's subtree is {1, 3, 4}. Kill rank 1 the
  // moment the root issues a rendezvous broadcast: the root must not wait
  // forever on the dead child's CTS - the surviving subtree {2, 5, 6}
  // still gets every chunk.
  const int n = 7;
  TestCluster tc(n);
  Shared sh;
  const auto pids = wire_fabric(tc, sh, {comm::TopologyKind::KAry, 2},
                                identity_placement(n), kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  Bytes payload(2 * kChunk, 0x5C);
  sh.iccls[0]->broadcast(4, payload);
  tc.machine.find_process(pids[1])->exit(9);

  ASSERT_TRUE(tc.run_until([&] {
    return sh.bcast_delivered.count(2) != 0 &&
           sh.bcast_delivered.count(5) != 0 && sh.bcast_delivered.count(6) != 0;
  }));
  for (std::uint32_t r : {2u, 5u, 6u}) {
    EXPECT_EQ(sh.bcast_delivered[r], payload) << "rank " << r;
  }
  // The dead subtree never delivered.
  EXPECT_EQ(sh.bcast_delivered.count(1), 0u);
  EXPECT_EQ(sh.bcast_delivered.count(3), 0u);
  EXPECT_EQ(sh.bcast_delivered.count(4), 0u);

  // A follow-up rendezvous round still completes for the survivors: the
  // dead child is out of the fan-out, not wedging the CTS collection.
  Bytes second(kChunk + 11, 0x77);
  sh.bcast_delivered.clear();
  sh.iccls[0]->broadcast(5, second);
  ASSERT_TRUE(tc.run_until([&] {
    return sh.bcast_delivered.count(2) != 0 &&
           sh.bcast_delivered.count(5) != 0 && sh.bcast_delivered.count(6) != 0;
  }));
  for (std::uint32_t r : {2u, 5u, 6u}) {
    EXPECT_EQ(sh.bcast_delivered[r], second) << "rank " << r;
  }
}

TEST(IcclProtocol, OverlappingRendezvousRoundsWithDistinctTagsBothDeliver) {
  // Two large broadcasts issued in the same event run their RTS/CTS/chunk
  // pipelines concurrently; per-tag state must keep the rounds separate.
  // (This is why DaemonRuntime::broadcast_command allocates one tag per
  // round instead of reusing a fixed command tag.)
  const int n = 7;
  TestCluster tc(n);
  Shared sh;
  wire_fabric(tc, sh, {comm::TopologyKind::KAry, 2}, identity_placement(n),
              kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  Bytes first(2 * kChunk + 17, 0x21);
  Bytes second(kChunk + 5, 0x42);
  sh.iccls[0]->broadcast(11, first);
  sh.iccls[0]->broadcast(12, second);
  ASSERT_TRUE(tc.run_until([&] {
    for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
      if (sh.bcast_by_tag[r].size() != 2) return false;
    }
    return true;
  }));
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    EXPECT_EQ(sh.bcast_by_tag[r][11], first) << "rank " << r;
    EXPECT_EQ(sh.bcast_by_tag[r][12], second) << "rank " << r;
  }
}

TEST(IcclProtocol, ScatterDeliversCorrectPartsUnderNonContiguousPlacement) {
  // Regression for the placement work: scatter partitions by *rank* subtree,
  // so it must deliver rank r its part even when the rank->node mapping is
  // scrambled (the old round-robin-style striding) instead of the new
  // contiguous blocks.
  const int n = 9;
  TestCluster tc(n);
  Shared sh;
  const std::vector<int> placement = {4, 7, 1, 8, 0, 3, 6, 2, 5};
  wire_fabric(tc, sh, {comm::TopologyKind::KAry, 3}, placement, kEagerOnly);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  std::vector<std::pair<std::uint32_t, Bytes>> entries;
  std::vector<Bytes> parts;
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    parts.push_back(Bytes(5, static_cast<std::uint8_t>(0x10 + r)));
  }
  std::vector<Bytes> parts_copy = parts;
  // Drive the raw scatter: root partitions parts[i] -> rank i.
  sh.iccls[0]->scatter(2, std::move(parts_copy));
  ASSERT_TRUE(tc.run_until(
      [&] { return static_cast<int>(sh.scatter_delivered.size()) == n; }));
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    EXPECT_EQ(sh.scatter_delivered[r], parts[r]) << "rank " << r;
  }
}

TEST(IcclProtocol, RoundOfAnUnboundKindIsDroppedAndCounted) {
  // Session 0 is bound like any other session: a scatter round reaching a
  // handler set without a scatter handler is dropped at every rank and
  // counted, never delivered elsewhere.
  const int n = 5;
  TestCluster tc(n);
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  Shared sh;
  sh.bind_scatter = false;
  wire_fabric(tc, sh, {comm::TopologyKind::KAry, 2}, identity_placement(n),
              kEagerOnly);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  std::vector<Bytes> parts(static_cast<std::size_t>(n), Bytes(4, 0x5A));
  sh.iccls[0]->scatter(6, std::move(parts));
  EXPECT_TRUE(tc.run_until(
      [&] { return metrics.counter("iccl.mux.unbound_drops") == n; }));
  EXPECT_TRUE(sh.scatter_delivered.empty());
  EXPECT_TRUE(sh.bcast_delivered.empty());
  EXPECT_TRUE(sh.gather_by_tag.empty());
  tc.machine.set_metrics(nullptr);
}

// --- rendezvous gathers (upstream data plane) ------------------------------

/// Deterministic per-origin fill so an entry's bytes identify its origin.
Bytes origin_payload(std::uint32_t rank, std::size_t size) {
  return Bytes(size, static_cast<std::uint8_t>(0x30 + rank));
}

TEST(IcclProtocol, LargeGatherRunsRtsCtsChunkSequenceUpward) {
  const int n = 7;
  TestCluster tc(n);
  testing::FlightRecorderOnFailure flight(tc.machine);
  Shared sh;
  wire_fabric(tc, sh, {comm::TopologyKind::KAry, 2}, identity_placement(n),
              kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  sh.frames.clear();
  const std::size_t payload_bytes = 2 * kChunk;
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    sh.iccls[r]->contribute(21, origin_payload(r, payload_bytes));
  }
  ASSERT_TRUE(tc.run_until([&] { return sh.gather_by_tag.count(21) != 0; }));

  const auto& entries = sh.gather_by_tag[21];
  ASSERT_EQ(entries.size(), static_cast<std::size_t>(n));
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    EXPECT_EQ(entries[r].first, r);
    EXPECT_EQ(entries[r].second, origin_payload(r, payload_bytes));
  }
  // The upstream plane really ran rendezvous: the root collected one RTS
  // per child, streamed chunks, and never saw a whole-subtree eager frame.
  EXPECT_EQ(count_frames(sh, 0, Iccl::Kind::GatherUp), 0);
  EXPECT_EQ(count_frames(sh, 0, Iccl::Kind::GatherRts), 2);
  // Every non-root origin's payload reaches the root chunk by chunk (6
  // origins x 2 chunks), relayed cut-through by the interior ranks.
  EXPECT_EQ(count_frames(sh, 0, Iccl::Kind::GatherChunk), (n - 1) * 2);
}

/// One kill scenario per fabric: `kill` dies mid-gather and `dead` is its
/// whole subtree (every origin whose path to the root crosses it).
struct GatherFaultCase {
  comm::TopologySpec topo;
  int n;
  std::uint32_t kill;
  std::vector<std::uint32_t> dead;
};

class IcclGatherFault : public ::testing::TestWithParam<GatherFaultCase> {
 protected:
  static bool is_dead(const GatherFaultCase& c, std::uint32_t rank) {
    return std::find(c.dead.begin(), c.dead.end(), rank) != c.dead.end();
  }

  /// Asserts the root's delivery for `tag`: every survivor present with its
  /// exact payload; dead-subtree origins absent unless `allow_dead_partial`
  /// (a mid-stream kill may land after an origin fully arrived, which is a
  /// completed contribution, not a corrupt one).
  static void check_delivery(const Shared& sh, const GatherFaultCase& c,
                             std::uint32_t tag,
                             const std::vector<std::size_t>& sizes,
                             bool allow_dead_partial) {
    const auto it = sh.gather_by_tag.find(tag);
    ASSERT_NE(it, sh.gather_by_tag.end());
    std::map<std::uint32_t, Bytes> got(it->second.begin(), it->second.end());
    EXPECT_EQ(got.size(), it->second.size()) << "duplicate origin delivered";
    for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(c.n); ++r) {
      if (is_dead(c, r)) {
        if (!allow_dead_partial) {
          EXPECT_EQ(got.count(r), 0u) << "dead origin " << r << " delivered";
        } else if (got.count(r) != 0) {
          // Whatever survived must be the complete contribution.
          EXPECT_EQ(got[r], origin_payload(r, sizes[r])) << "origin " << r;
        }
      } else {
        ASSERT_EQ(got.count(r), 1u) << "survivor " << r << " missing";
        EXPECT_EQ(got[r], origin_payload(r, sizes[r])) << "origin " << r;
      }
    }
  }
};

TEST_P(IcclGatherFault, ChildDeathDuringRtsCtsDropsItsSubtreeOnly) {
  const GatherFaultCase c = GetParam();
  TestCluster tc(c.n);
  testing::FlightRecorderOnFailure flight(tc.machine);
  Shared sh;
  const auto pids = wire_fabric(tc, sh, c.topo, identity_placement(c.n),
                                kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == c.n; }));

  // Kill in the same sim instant as the contributions: the victim's RTS
  // may be in flight, but no CTS can have cleared it to stream - nothing
  // of its subtree's payload ever moves.
  std::vector<std::size_t> sizes(static_cast<std::size_t>(c.n), 2 * kChunk);
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(c.n); ++r) {
    sh.iccls[r]->contribute(31, origin_payload(r, sizes[r]));
  }
  tc.machine.find_process(pids[c.kill])->exit(9);

  ASSERT_TRUE(tc.run_until([&] { return sh.gather_by_tag.count(31) != 0; }));
  check_delivery(sh, c, 31, sizes, /*allow_dead_partial=*/false);

  // The fabric is still usable: a follow-up rendezvous gather completes
  // with exactly the surviving subtree (orphaned ranks below the victim
  // contribute into a void, and must not wedge the root).
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(c.n); ++r) {
    if (r == c.kill) continue;
    sh.iccls[r]->contribute(32, origin_payload(r, sizes[r]));
  }
  ASSERT_TRUE(tc.run_until([&] { return sh.gather_by_tag.count(32) != 0; }));
  check_delivery(sh, c, 32, sizes, /*allow_dead_partial=*/false);
}

TEST_P(IcclGatherFault, ChildDeathMidChunkStreamDeliversSurvivors) {
  const GatherFaultCase c = GetParam();
  TestCluster tc(c.n);
  testing::FlightRecorderOnFailure flight(tc.machine);
  Shared sh;
  const auto pids = wire_fabric(tc, sh, c.topo, identity_placement(c.n),
                                kRndvAlways);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == c.n; }));

  // Give the victim a long contribution so the first observed chunk frame
  // is guaranteed to land mid-round, then kill it while its (and possibly
  // its descendants') chunks are still streaming.
  std::vector<std::size_t> sizes(static_cast<std::size_t>(c.n), 2 * kChunk);
  sizes[c.kill] = 6 * kChunk;
  sh.frames.clear();
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(c.n); ++r) {
    sh.iccls[r]->contribute(41, origin_payload(r, sizes[r]));
  }
  ASSERT_TRUE(tc.run_until([&] {
    for (const auto& f : sh.frames) {
      if (f.kind == Iccl::Kind::GatherChunk) return true;
    }
    return false;
  }));
  ASSERT_EQ(sh.gather_by_tag.count(41), 0u) << "round finished before kill";
  tc.machine.find_process(pids[c.kill])->exit(9);

  ASSERT_TRUE(tc.run_until([&] { return sh.gather_by_tag.count(41) != 0; }));
  check_delivery(sh, c, 41, sizes, /*allow_dead_partial=*/true);

  // Survivors still gather cleanly afterwards.
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(c.n); ++r) {
    if (r == c.kill) continue;
    sh.iccls[r]->contribute(42, origin_payload(r, sizes[r]));
  }
  ASSERT_TRUE(tc.run_until([&] { return sh.gather_by_tag.count(42) != 0; }));
  check_delivery(sh, c, 42, sizes, /*allow_dead_partial=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, IcclGatherFault,
    ::testing::Values(
        // kary:2, 7 ranks: rank 1's subtree is {1, 3, 4}.
        GatherFaultCase{{comm::TopologyKind::KAry, 2}, 7, 1, {1, 3, 4}},
        // binomial, 8 ranks: rank 4 owns the contiguous subtree {4..7}.
        GatherFaultCase{{comm::TopologyKind::Binomial, 0}, 8, 4, {4, 5, 6, 7}},
        // flat: every rank is a leaf of the root; only the victim is lost.
        GatherFaultCase{{comm::TopologyKind::Flat, 0}, 6, 3, {3}}),
    [](const ::testing::TestParamInfo<GatherFaultCase>& pinfo) {
      std::string name = pinfo.param.topo.to_string();
      for (char& ch : name) {
        if (ch == ':' || ch == '-') ch = '_';
      }
      return name;
    });

// --- broadcast_command through a real session ------------------------------

struct CommandState {
  std::map<std::uint32_t, std::vector<Bytes>> received;  // rank -> payloads
  int ready = 0;
};

/// BE daemon whose master fires two large commands back-to-back the moment
/// the session is ready: with the session pinned to rendezvous, both
/// rounds' chunk pipelines are in flight at once.
class CommandDaemon : public cluster::Program {
 public:
  explicit CommandDaemon(CommandState* state) : state_(state) {}
  [[nodiscard]] std::string_view name() const override { return "cmd_be"; }

  void on_start(cluster::Process& self) override {
    be_ = std::make_unique<BackEnd>(self);
    BackEnd::Callbacks cbs;
    cbs.on_init = [](const Rpdtab&, const Bytes&,
                     std::function<void(Status)> done) { done(Status::ok()); };
    cbs.on_command = [this](const Bytes& data) {
      state_->received[be_->rank()].push_back(data);
    };
    cbs.on_ready = [this](Status st) {
      if (!st.is_ok()) return;
      state_->ready += 1;
      if (be_->is_master()) {
        (void)be_->broadcast_command(Bytes(150 * 1024, 0x61));
        (void)be_->broadcast_command(Bytes(70 * 1024, 0x62));
      }
    };
    ASSERT_TRUE(be_->init(std::move(cbs)).is_ok());
  }

  static void install(cluster::Machine& machine, CommandState* state) {
    cluster::ProgramImage image;
    image.image_mb = 2.0;
    image.factory = [state](const std::vector<std::string>&) {
      return std::make_unique<CommandDaemon>(state);
    };
    machine.install_program("cmd_be", std::move(image));
  }

 private:
  CommandState* state_;
  std::unique_ptr<BackEnd> be_;
};

TEST(IcclProtocol, OverlappingLargeCommandsDeliverIntactUnderRendezvous) {
  const int n = 8;
  TestCluster tc(n);
  CommandState state;
  CommandDaemon::install(tc.machine, &state);

  std::shared_ptr<FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    auto sid = fe->create_session();
    FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "cmd_be";
    // Every non-empty broadcast runs rendezvous.
    cfg.rndv = RndvSetting{RndvSetting::Mode::Bytes, 1};
    rm::JobSpec job{n, 1, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg, [](Status) {});
  });
  ASSERT_TRUE(tc.run_until([&] {
    if (state.ready != n) return false;
    for (const auto& [rank, payloads] : state.received) {
      (void)rank;
      if (payloads.size() != 2) return false;
    }
    return static_cast<int>(state.received.size()) == n;
  }));

  // Every rank (including the master) got both command payloads intact,
  // whatever order the concurrent rounds completed in.
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    ASSERT_EQ(state.received[r].size(), 2u) << "rank " << r;
    std::vector<Bytes> got = state.received[r];
    std::sort(got.begin(), got.end(),
              [](const Bytes& a, const Bytes& b) { return a.size() > b.size(); });
    EXPECT_EQ(got[0], Bytes(150 * 1024, 0x61)) << "rank " << r;
    EXPECT_EQ(got[1], Bytes(70 * 1024, 0x62)) << "rank " << r;
  }
}

// --- zero-copy data plane: wire image, frame checks, receiver join --------

TEST(IcclWire, FixedCollectiveMixPutsTheRecordedBytesOnTheWire) {
  // Payload frames carry a view of the sender's buffer instead of a copy,
  // but their wire image is unchanged: the totals below were recorded when
  // every frame still copied its payload in behind the header.
  const int n = 7;
  TestCluster tc(n);
  Shared sh;
  wire_fabric(tc, sh, {comm::TopologyKind::KAry, 2}, identity_placement(n),
              64 * 1024);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));
  obs::Metrics metrics;
  tc.machine.set_metrics(&metrics);
  sh.frames.clear();

  sh.iccls[0]->broadcast(1, Bytes(4096, 0x11));  // eager
  ASSERT_TRUE(tc.run_until([&] {
    return static_cast<int>(sh.bcast_by_tag.size()) == n &&
           std::all_of(sh.bcast_by_tag.begin(), sh.bcast_by_tag.end(),
                       [](const auto& r) { return r.second.count(1) != 0; });
  }));
  sh.iccls[0]->broadcast(2, Bytes(3 * kChunk + 1000, 0x22));  // rendezvous
  ASSERT_TRUE(tc.run_until([&] {
    return std::all_of(sh.bcast_by_tag.begin(), sh.bcast_by_tag.end(),
                       [](const auto& r) { return r.second.count(2) != 0; });
  }));
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    sh.iccls[r]->contribute(3, origin_payload(r, 512));  // eager
  }
  ASSERT_TRUE(tc.run_until([&] { return sh.gather_by_tag.count(3) != 0; }));
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    sh.iccls[r]->contribute(4, origin_payload(r, kChunk + 100));  // rendezvous
  }
  ASSERT_TRUE(tc.run_until([&] { return sh.gather_by_tag.count(4) != 0; }));
  ASSERT_EQ(sh.gather_by_tag[3].size(), static_cast<std::size_t>(n));
  ASSERT_EQ(sh.gather_by_tag[4].size(), static_cast<std::size_t>(n));

  std::map<Iccl::Kind, std::pair<int, std::size_t>> by_kind;
  for (const auto& f : sh.frames) {
    by_kind[f.kind].first += 1;
    by_kind[f.kind].second += f.bytes;
  }
  using K = Iccl::Kind;
  const std::map<Iccl::Kind, std::pair<int, std::size_t>> recorded = {
      {K::Bcast, {6, 24576}},        {K::GatherUp, {6, 3072}},
      {K::RndvRts, {6, 24}},         {K::RndvCts, {6, 0}},
      {K::RndvChunk, {24, 1185648}}, {K::GatherRts, {6, 24}},
      {K::GatherCts, {6, 0}},        {K::GatherChunk, {20, 656360}},
  };
  EXPECT_EQ(by_kind, recorded);
  EXPECT_EQ(metrics.counter("net.bytes_total"), 1873736.0);
  tc.machine.set_metrics(nullptr);
}

TEST(IcclWire, EveryRankDeliversTheRootsBroadcastBuffer) {
  // Eager frames and rendezvous chunks view the root's payload, relays
  // forward those views, and a receiver whose chunks view one buffer in
  // order delivers that buffer: no rank copies the payload.
  const int n = 12;
  TestCluster tc(n);
  Shared sh;
  wire_fabric(tc, sh, {comm::TopologyKind::KAry, 3}, identity_placement(n),
              64 * 1024);
  ASSERT_TRUE(tc.run_until([&] { return sh.ready == n; }));

  Bytes large(3 * kChunk + 1000);
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<std::uint8_t>(i * 7);
  }
  sh.iccls[0]->broadcast(1, Bytes(4096, 0x11));
  sh.iccls[0]->broadcast(2, large);
  ASSERT_TRUE(tc.run_until([&] {
    return static_cast<int>(sh.bcast_addr.size()) == n &&
           std::all_of(sh.bcast_addr.begin(), sh.bcast_addr.end(),
                       [](const auto& r) { return r.second.size() == 2; });
  }));
  for (std::uint32_t tag : {1u, 2u}) {
    const std::uint8_t* root = sh.bcast_addr[0][tag];
    for (std::uint32_t r = 1; r < static_cast<std::uint32_t>(n); ++r) {
      EXPECT_EQ(sh.bcast_addr[r][tag], root) << "rank " << r << " tag " << tag;
    }
  }
  for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
    EXPECT_EQ(sh.bcast_by_tag[r][2], large) << "rank " << r;
  }
}

// A stand-in for rank 0 of a two-rank flat fabric, so a test can put
// hand-built frames on the wire to a real Iccl leaf (rank 1). Frames are
// spelled out byte by byte here: kind u8, session u32, tag u32, src u32,
// entry count u32, then per entry rank u32 and a u32-length-prefixed blob.
struct FakeRootState {
  cluster::Process* self = nullptr;
  cluster::ChannelPtr child;
  std::vector<Iccl::Kind> received;
};

class FakeRoot : public cluster::Program {
 public:
  explicit FakeRoot(FakeRootState* st) : st_(st) {}
  [[nodiscard]] std::string_view name() const override { return "fake_root"; }
  void on_start(cluster::Process& self) override {
    st_->self = &self;
    ASSERT_TRUE(self.listen(cluster::kToolFabricBasePort,
                            [this](cluster::ChannelPtr ch) {
                              st_->child = std::move(ch);
                            })
                    .is_ok());
  }
  void on_message(cluster::Process&, const cluster::ChannelPtr&,
                  cluster::Message m) override {
    if (!m.bytes.empty()) st_->received.push_back(Iccl::Kind{m.bytes[0]});
  }

 private:
  FakeRootState* st_;
};

Bytes frame_header(Iccl::Kind kind, std::uint32_t tag, std::uint32_t count) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(0);  // session
  w.u32(tag);
  w.u32(0);  // src: the root
  w.u32(count);
  return std::move(w).take();
}

/// Header of a one-entry frame up to and including the entry's length.
Bytes entry_header(Iccl::Kind kind, std::uint32_t tag, std::uint32_t rank,
                   std::size_t len, std::uint32_t count = 1) {
  ByteWriter w;
  w.raw(frame_header(kind, tag, count));
  w.u32(rank);
  w.u32(static_cast<std::uint32_t>(len));
  return std::move(w).take();
}

/// The same frame with its payload copied in behind the header.
cluster::Message flat_frame(Iccl::Kind kind, std::uint32_t tag,
                            std::uint32_t rank,
                            std::span<const std::uint8_t> payload) {
  Bytes b = entry_header(kind, tag, rank, payload.size());
  b.insert(b.end(), payload.begin(), payload.end());
  return cluster::Message(std::move(b));
}

struct FakeRootFabric {
  TestCluster tc{2};
  Shared sh;
  FakeRootState root;

  FakeRootFabric() {
    comm::BootstrapSpec spec;
    spec.size = 2;
    spec.topology = {comm::TopologyKind::Flat, 0};
    spec.port = cluster::kToolFabricBasePort;
    spec.session = "raw";
    spec.rndv_threshold = kRndvAlways;
    for (int node : {0, 1}) {
      spec.hosts.push_back(tc.machine.compute_node(node).hostname());
    }
    cluster::SpawnOptions root_opts;
    root_opts.executable = "fake_root";
    EXPECT_TRUE(tc.machine.compute_node(0)
                    .spawn(std::make_unique<FakeRoot>(&root),
                           std::move(root_opts))
                    .is_ok());
    cluster::SpawnOptions leaf_opts;
    leaf_opts.executable = "raw_iccl";
    leaf_opts.args = comm::bootstrap_args(spec, 1);
    EXPECT_TRUE(tc.machine.compute_node(1)
                    .spawn(std::make_unique<RawIcclDaemon>(&sh),
                           std::move(leaf_opts))
                    .is_ok());
  }

  void send(cluster::Message m) { root.self->send(root.child, std::move(m)); }

  /// Opens a rendezvous broadcast at the leaf and waits for its CTS.
  bool open_rendezvous(std::uint32_t tag, std::uint32_t nchunks,
                       std::size_t total) {
    ByteWriter w;
    w.raw(frame_header(Iccl::Kind::RndvRts, tag, 1));
    w.u32(nchunks);
    ByteWriter size;
    size.u32(static_cast<std::uint32_t>(total));
    w.blob(size.bytes());
    root.received.clear();
    send(cluster::Message(std::move(w).take()));
    return tc.run_until([&] {
      return std::count(root.received.begin(), root.received.end(),
                        Iccl::Kind::RndvCts) == 1;
    });
  }
};

Bytes patterned(std::size_t size) {
  Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>(i ^ (i >> 8));
  }
  return b;
}

TEST(IcclWire, PayloadFrameWithWrongLengthOrEntryCountIsRejected) {
  FakeRootFabric f;
  ASSERT_TRUE(f.tc.run_until([&] { return f.sh.ready == 1; }));
  auto buf = std::make_shared<const Bytes>(patterned(300));
  const ByteSlice view(buf);
  using K = Iccl::Kind;

  // Header length disagrees with the view behind it, either way.
  f.send(cluster::Message(entry_header(K::Bcast, 1, 0, 299), view));
  f.send(cluster::Message(entry_header(K::Bcast, 2, 0, 301), view));
  f.send(cluster::Message(entry_header(K::RndvChunk, 3, 0, 0), view));
  f.send(cluster::Message(entry_header(K::GatherChunk, 4, 0, 299), view));
  // A header with bytes after its length field, then the view.
  Bytes trailing = entry_header(K::Bcast, 5, 0, 300);
  trailing.push_back(0);
  f.send(cluster::Message(std::move(trailing), view));
  // Entry count is not 1: with a view, flat with two entries, and empty.
  f.send(cluster::Message(entry_header(K::Bcast, 6, 0, 300, 2), view));
  ByteWriter two;
  two.raw(frame_header(K::Bcast, 7, 2));
  for (std::uint32_t rank : {0u, 1u}) {
    two.u32(rank);
    two.blob(view.span());
  }
  f.send(cluster::Message(std::move(two).take()));
  f.send(cluster::Message(frame_header(K::Bcast, 8, 0)));
  // A view behind a frame kind that carries no payload view.
  f.send(cluster::Message(frame_header(K::GatherCts, 9, 0), view));
  // Then one good frame of each form: both are decoded and delivered.
  f.send(cluster::Message(entry_header(K::Bcast, 10, 0, 300), view));
  f.send(flat_frame(K::Bcast, 11, 0, view.span()));

  ASSERT_TRUE(
      f.tc.run_until([&] { return f.sh.bcast_by_tag[1].size() == 2; }));
  f.tc.run_until([] { return false; }, sim::ms(50));
  ASSERT_EQ(f.sh.frames.size(), 2u) << "a malformed frame was decoded";
  EXPECT_EQ(f.sh.frames[0].tag, 10u);
  EXPECT_EQ(f.sh.frames[1].tag, 11u);
  EXPECT_EQ(f.sh.bcast_by_tag[1][10], *buf);
  EXPECT_EQ(f.sh.bcast_by_tag[1][11], *buf);
  EXPECT_EQ(f.sh.bcast_addr[1][10], buf->data());
}

TEST(IcclWire, RendezvousReceiverDeliversTheSendersBufferWhenChunksViewIt) {
  FakeRootFabric f;
  ASSERT_TRUE(f.tc.run_until([&] { return f.sh.ready == 1; }));
  auto buf = std::make_shared<const Bytes>(patterned(2 * kChunk + 500));
  const ByteSlice payload(buf);
  ASSERT_TRUE(f.open_rendezvous(1, 3, payload.size()));
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    const std::size_t begin = seq * kChunk;
    const ByteSlice chunk = payload.sub(
        begin, std::min<std::size_t>(kChunk, payload.size() - begin));
    f.send(cluster::Message(
        entry_header(Iccl::Kind::RndvChunk, 1, seq, chunk.size()), chunk));
  }
  ASSERT_TRUE(
      f.tc.run_until([&] { return f.sh.bcast_by_tag[1].count(1) != 0; }));
  EXPECT_EQ(f.sh.bcast_addr[1][1], buf->data());
  EXPECT_EQ(f.sh.bcast_by_tag[1][1], *buf);
}

TEST(IcclWire, RendezvousReceiverJoinsChunksFromDifferentBuffersOnce) {
  // The middle chunk arrives flat (its bytes inside the frame), so the
  // chunks do not view one buffer: the receiver concatenates them, and the
  // delivered bytes are still exactly the payload.
  FakeRootFabric f;
  ASSERT_TRUE(f.tc.run_until([&] { return f.sh.ready == 1; }));
  auto buf = std::make_shared<const Bytes>(patterned(2 * kChunk + 500));
  const ByteSlice payload(buf);
  ASSERT_TRUE(f.open_rendezvous(1, 3, payload.size()));
  const ByteSlice first = payload.sub(0, kChunk);
  const ByteSlice middle = payload.sub(kChunk, kChunk);
  const ByteSlice last = payload.sub(2 * kChunk, 500);
  f.send(cluster::Message(
      entry_header(Iccl::Kind::RndvChunk, 1, 0, first.size()), first));
  f.send(flat_frame(Iccl::Kind::RndvChunk, 1, 1, middle.span()));
  f.send(cluster::Message(
      entry_header(Iccl::Kind::RndvChunk, 1, 2, last.size()), last));
  ASSERT_TRUE(
      f.tc.run_until([&] { return f.sh.bcast_by_tag[1].count(1) != 0; }));
  EXPECT_EQ(f.sh.bcast_by_tag[1][1], *buf);
  EXPECT_NE(f.sh.bcast_addr[1][1], buf->data());
}

}  // namespace
}  // namespace lmon::core
