// bench_micro_protocol - google-benchmark microbenchmarks of the hot
// protocol-layer operations (real CPU time, not simulated time): LMONP
// encode/decode, RPDTAB pack/unpack, fabric tree math, prefix-tree merging
// and the event queue.
#include <benchmark/benchmark.h>

#include "comm/topology.hpp"
#include "core/lmonp.hpp"
#include "core/rpdtab.hpp"
#include "simkernel/event_queue.hpp"
#include "simkernel/rng.hpp"
#include "tools/stat/prefix_tree.hpp"

namespace {

using namespace lmon;

void BM_LmonpEncode(benchmark::State& state) {
  core::LmonpMessage m = core::LmonpMessage::fe_daemon(
      core::MsgClass::FeBe, core::FeDaemonMsg::HandshakeInit,
      Bytes(static_cast<std::size_t>(state.range(0)), 0x42), Bytes(128, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.encode());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.wire_size()));
}
BENCHMARK(BM_LmonpEncode)->Range(64, 1 << 20);

void BM_LmonpDecode(benchmark::State& state) {
  core::LmonpMessage m = core::LmonpMessage::fe_daemon(
      core::MsgClass::FeBe, core::FeDaemonMsg::HandshakeInit,
      Bytes(static_cast<std::size_t>(state.range(0)), 0x42));
  const cluster::Message wire = m.encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::LmonpMessage::decode(wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_LmonpDecode)->Range(64, 1 << 20);

core::Rpdtab make_table(int ntasks) {
  std::vector<rm::TaskDesc> entries;
  entries.reserve(static_cast<std::size_t>(ntasks));
  for (int i = 0; i < ntasks; ++i) {
    entries.push_back(rm::TaskDesc{"atlas" + std::to_string(i / 8 + 1),
                                   "mpi_app", 1000 + i, i});
  }
  return core::Rpdtab(std::move(entries));
}

void BM_RpdtabPack(benchmark::State& state) {
  const core::Rpdtab table = make_table(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.pack());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RpdtabPack)->Range(8, 1 << 14);

void BM_RpdtabUnpack(benchmark::State& state) {
  const Bytes packed = make_table(static_cast<int>(state.range(0))).pack();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Rpdtab::unpack(packed));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RpdtabUnpack)->Range(8, 1 << 14);

void BM_IcclSubtreeEnumeration(benchmark::State& state) {
  const comm::Topology topo({comm::TopologyKind::KAry, 32},
                            static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.subtree_of(1));
  }
}
BENCHMARK(BM_IcclSubtreeEnumeration)->Range(64, 1 << 16);

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < state.range(0); ++i) {
      q.push(static_cast<sim::Time>(rng.next_below(1'000'000)), [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EventQueuePushPop)->Range(64, 1 << 14);

tools::stat::PrefixTree make_tree(int ntraces, std::uint64_t seed) {
  static const char* frames[] = {"main", "solve", "halo", "MPI_Waitall",
                                 "io",   "bc",    "stencil"};
  sim::Rng rng(seed);
  tools::stat::PrefixTree t;
  for (int i = 0; i < ntraces; ++i) {
    std::vector<std::string> trace{"_start"};
    const auto depth = 2 + rng.next_below(4);
    for (std::uint64_t d = 0; d < depth; ++d) {
      trace.push_back(frames[rng.next_below(7)]);
    }
    t.add_trace(trace, i);
  }
  return t;
}

void BM_PrefixTreeMerge(benchmark::State& state) {
  const auto a = make_tree(static_cast<int>(state.range(0)), 1);
  const auto b = make_tree(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    tools::stat::PrefixTree merged;
    merged.merge(a);
    merged.merge(b);
    benchmark::DoNotOptimize(merged.node_count());
  }
}
BENCHMARK(BM_PrefixTreeMerge)->Range(16, 4096);

void BM_PrefixTreePackUnpack(benchmark::State& state) {
  const auto t = make_tree(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tools::stat::PrefixTree::unpack(t.pack()));
  }
}
BENCHMARK(BM_PrefixTreePackUnpack)->Range(16, 4096);

}  // namespace

BENCHMARK_MAIN();
