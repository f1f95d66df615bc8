// collective_rounds.hpp - a tool's steady state on one bootstrapped tree.
//
// Closed loop: the master broadcasts, every rank gathers, and the master
// issues the next round when its gather lands. Bootstrapping the tree is
// set-up. Sizes come in blocks of 16 rounds that hold every pairing of
// {1 MiB, 4 KiB x3} broadcasts with {64 KiB, 512 B x3} per-rank gathers
// exactly once, shuffled by the seed: both ICCL protocols run in both
// directions, and every window of 16 rounds carries the same bytes.
#pragma once

#include "core/be_api.hpp"
#include "workloads/common.hpp"

namespace lmon::benchmark {

namespace rounds_detail {

constexpr std::size_t kBcastLarge = 1024 * 1024;
constexpr std::size_t kBcastSmall = 4 * 1024;
constexpr std::size_t kGatherLarge = 64 * 1024;
constexpr std::size_t kGatherSmall = 512;
constexpr int kBlock = 16;

struct Round {
  std::size_t bcast_bytes = 0;
  std::size_t gather_bytes = 0;  ///< per rank
  std::uint64_t key = 0;         ///< payload offsets derive from it
};

/// Everything the daemons and the benchmark loop share for one tree.
struct Shared {
  Shared(const std::vector<Round>& plan_in, const PayloadPool& pool_in,
         int ranks_in, PassResult* result_in)
      : plan(plan_in),
        pool(pool_in),
        ranks(ranks_in),
        result(result_in),
        issued(plan.size(), -1),
        bcast_last(plan.size(), -1),
        gathered(plan.size(), -1) {}

  const std::vector<Round>& plan;
  const PayloadPool& pool;
  int ranks = 0;
  PassResult* result = nullptr;
  int ready = 0;
  std::function<void()> start;  ///< set by the master once Ready
  int rounds_done = 0;
  std::vector<sim::Time> issued;       ///< master's broadcast call
  std::vector<sim::Time> bcast_last;   ///< last rank's delivery
  std::vector<sim::Time> gathered;     ///< master's gather delivery

  [[nodiscard]] std::size_t bcast_offset(int r) const {
    return pool.offset_for(plan[static_cast<std::size_t>(r)].key,
                           plan[static_cast<std::size_t>(r)].bcast_bytes);
  }
  [[nodiscard]] std::size_t gather_offset(int r, std::uint32_t rank) const {
    const Round& rd = plan[static_cast<std::size_t>(r)];
    return pool.offset_for(rd.key * 131 + rank + 1, rd.gather_bytes);
  }
};

/// The SPMD back end: on Ready every rank enters the round loop; the master
/// waits for the benchmark loop's start.
class RoundsDaemon : public cluster::Program {
 public:
  explicit RoundsDaemon(Shared* shared) : shared_(shared) {}

  [[nodiscard]] std::string_view name() const override {
    return "rounds_be";
  }

  void on_start(cluster::Process& self) override {
    self_ = &self;
    be_ = std::make_unique<core::BackEnd>(self);
    core::BackEnd::Callbacks cbs;
    cbs.on_init = [](const core::Rpdtab&, const Bytes&,
                     std::function<void(Status)> done) { done(Status::ok()); };
    cbs.on_ready = [this](Status st) {
      if (!st.is_ok()) {
        shared_->result->error("rounds daemon failed: " + st.to_string());
        return;
      }
      shared_->ready += 1;
      if (be_->is_master()) {
        shared_->start = [this] { round(0); };
      } else {
        round(0);
      }
    };
    if (!be_->init(std::move(cbs)).is_ok()) self.exit(1);
  }

  static void install(cluster::Machine& machine, Shared* shared) {
    cluster::ProgramImage image;
    image.image_mb = machine.costs().tool_daemon_image_mb;
    image.factory = [shared](const std::vector<std::string>&) {
      return std::make_unique<RoundsDaemon>(shared);
    };
    machine.install_program("rounds_be", std::move(image));
  }

 private:
  void round(int r) {
    if (r >= static_cast<int>(shared_->plan.size())) return;
    const bool master = be_->is_master();
    Bytes data;
    if (master) {
      shared_->issued[static_cast<std::size_t>(r)] = self_->sim().now();
      data = shared_->pool.slice(shared_->bcast_offset(r),
                                 shared_->plan[static_cast<std::size_t>(r)]
                                     .bcast_bytes);
    }
    be_->broadcast(std::move(data), [this, r, master](const Bytes& got) {
      on_bcast(r, got);
      const std::uint32_t rank = be_->rank();
      const std::size_t n =
          shared_->plan[static_cast<std::size_t>(r)].gather_bytes;
      Bytes mine = shared_->pool.slice(shared_->gather_offset(r, rank), n);
      if (master) {
        be_->gather(std::move(mine), [this, r](auto entries) {
          on_gathered(r, entries);
          round(r + 1);
        });
      } else {
        be_->gather(std::move(mine), nullptr);
        round(r + 1);
      }
    });
  }

  void on_bcast(int r, const Bytes& got) {
    const std::size_t n = shared_->plan[static_cast<std::size_t>(r)].bcast_bytes;
    if (!shared_->pool.matches(got, shared_->bcast_offset(r), n)) {
      shared_->result->error("round " + std::to_string(r) + ": rank " +
                             std::to_string(be_->rank()) +
                             " received a corrupted broadcast");
    }
    sim::Time& last = shared_->bcast_last[static_cast<std::size_t>(r)];
    last = std::max(last, self_->sim().now());
  }

  void on_gathered(int r,
                   const std::vector<std::pair<std::uint32_t, Bytes>>& entries) {
    const std::size_t n =
        shared_->plan[static_cast<std::size_t>(r)].gather_bytes;
    bool ok = entries.size() == static_cast<std::size_t>(shared_->ranks);
    for (std::size_t k = 0; ok && k < entries.size(); ++k) {
      const auto& [rank, bytes] = entries[k];
      ok = rank == k &&
           shared_->pool.matches(bytes, shared_->gather_offset(r, rank), n);
    }
    if (!ok) {
      shared_->result->error("round " + std::to_string(r) +
                             ": gather is not the " +
                             std::to_string(shared_->ranks) +
                             " rank-ordered contributions");
    }
    shared_->gathered[static_cast<std::size_t>(r)] = self_->sim().now();
    shared_->rounds_done += 1;
  }

  Shared* shared_;
  cluster::Process* self_ = nullptr;
  std::unique_ptr<core::BackEnd> be_;
};

inline std::vector<Round> make_plan(std::uint64_t seed, int rounds) {
  InputRng rng(derive_seed(seed, 1));
  std::vector<Round> plan;
  for (int b = 0; b < rounds / kBlock; ++b) {
    std::vector<Round> block;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        block.push_back(Round{i == 0 ? kBcastLarge : kBcastSmall,
                              j == 0 ? kGatherLarge : kGatherSmall, 0});
      }
    }
    rng.shuffle(block);
    for (Round& rd : block) {
      rd.key = rng.next();
      plan.push_back(rd);
    }
  }
  return plan;
}

/// A booted cluster whose 128-daemon tree is Ready and idle.
struct Tree {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<core::FrontEnd> fe;
  int sid = -1;
  const core::TunedConfig* tuned = nullptr;
};

inline Tree bootstrap(Shared& shared, std::uint64_t seed) {
  Tree t;
  t.cluster = std::make_unique<Cluster>(shared.ranks, 0, seed);
  RoundsDaemon::install(t.cluster->machine, &shared);
  bool done = false;
  Status status;
  t.cluster->spawn_fe([&](cluster::Process& self) {
    t.fe = std::make_unique<core::FrontEnd>(self);
    if (!t.fe->init().is_ok()) return;
    t.sid = t.fe->create_session().value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "rounds_be";
    t.fe->launch_and_spawn(t.sid, rm::JobSpec{shared.ranks, 1, "mpi_app", {}},
                           cfg, [&](Status st) {
                             status = st;
                             done = true;
                           });
  });
  if (!run_until(t.cluster->sim,
                 [&] { return done && shared.start != nullptr &&
                              shared.ready == shared.ranks; },
                 sim::seconds(600)) ||
      !status.is_ok()) {
    throw std::runtime_error("collective_rounds: tree bootstrap failed: " +
                             status.to_string());
  }
  t.tuned = t.fe->tuned_config(t.sid);
  return t;
}

}  // namespace rounds_detail

inline PassResult run_collective_rounds(const Params& p) {
  using namespace rounds_detail;
  PassResult r;
  const int rounds = p.ops;
  const std::vector<Round> plan = make_plan(p.seed, rounds);
  const PayloadPool pool(derive_seed(p.seed, 2), 2 * kBcastLarge);
  std::unique_ptr<Shared> shared;
  Tree tree;
  // Identical set-ups, each timed from boot through destruction; the
  // last one runs the rounds before it is destroyed.
  for (int k = 0; k < kTreeSetups; ++k) {
    const Stopwatch watch;
    shared = std::make_unique<Shared>(plan, pool, p.smoke ? 16 : 128, &r);
    tree = bootstrap(*shared, p.seed);
    if (k + 1 < kTreeSetups) {
      tree.fe.reset();
      tree.cluster.reset();
    }
    r.setups.push_back(watch.stop());
  }

  // Both protocols must be reachable from the sizes used: the tuned
  // threshold lies above the small broadcast and at or below the large one.
  if (tree.tuned == nullptr || tree.tuned->rndv_threshold <= kBcastSmall ||
      tree.tuned->rndv_threshold > kBcastLarge) {
    r.error("tuned rendezvous threshold " +
            std::to_string(tree.tuned ? tree.tuned->rndv_threshold : 0) +
            " does not split the broadcast sizes");
  }

  Cluster& cl = *tree.cluster;
  {
    Instruments inst(cl, r, p.traced, p.trace_out);
    TimedPhase timed(r);
    timed.start(cl.sim);
    cl.sim.schedule(0, shared->start);
    for (int w = 0; w < rounds / kBlock; ++w) {
      const Stopwatch watch;
      const int target = (w + 1) * kBlock;
      if (!run_until(cl.sim, [&] { return shared->rounds_done >= target; },
                     sim::seconds(600), p.traced ? &r.probe : nullptr)) {
        break;
      }
      HostSample window = watch.stop();
      window.host *= 1e3 / kBlock;
      r.windows.push_back(window);
      inst.rotate();
    }
    timed.stop(cl.sim);
  }

  r.attempted = rounds;
  std::vector<double> bcast_eager, bcast_rndv, gather_small, gather_large;
  for (int i = 0; i < rounds; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    if (shared->gathered[k] < 0) {
      r.failed += 1;
      continue;
    }
    const Round& rd = shared->plan[k];
    r.latency_ms.push_back(sim::to_ms(shared->gathered[k] - shared->issued[k]));
    const double b = sim::to_ms(shared->bcast_last[k] - shared->issued[k]);
    const double g = sim::to_ms(shared->gathered[k] - shared->bcast_last[k]);
    (rd.bcast_bytes == kBcastLarge ? bcast_rndv : bcast_eager).push_back(b);
    (rd.gather_bytes == kGatherLarge ? gather_large : gather_small).push_back(g);
    r.tool_bytes += static_cast<double>(rd.bcast_bytes) +
                    static_cast<double>(rd.gather_bytes) * shared->ranks;
  }
  r.layers["iccl.bcast_eager_ms_p50"] = median(bcast_eager);
  r.layers["iccl.bcast_rndv_ms_p50"] = median(bcast_rndv);
  r.layers["iccl.gather_small_ms_p50"] = median(gather_small);
  r.layers["iccl.gather_large_ms_p50"] = median(gather_large);
  if (p.traced && (r.metrics.counter("iccl.rts_sent") <= 0 ||
                   r.metrics.counter("iccl.eager_frames") <= 0 ||
                   r.metrics.counter("iccl.gather_rts_sent") <= 0)) {
    r.error("a collective protocol never ran (iccl.rts_sent=" +
            std::to_string(r.metrics.counter("iccl.rts_sent")) +
            ", iccl.eager_frames=" +
            std::to_string(r.metrics.counter("iccl.eager_frames")) +
            ", iccl.gather_rts_sent=" +
            std::to_string(r.metrics.counter("iccl.gather_rts_sent")) + ")");
  }

  const auto t_down = HostClock::now();
  tree.fe.reset();
  tree.cluster.reset();
  r.setups.back().host += seconds_since(t_down);
  return r;
}

}  // namespace lmon::benchmark
