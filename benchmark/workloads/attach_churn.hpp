// attach_churn.hpp - a persistent tree serving tool sessions as they arrive.
//
// Open loop: virtual sessions arrive every 5 ms on one bootstrapped 128-
// daemon tree (bootstrapping it is set-up), each through
// SpawnConfig::attach_to. Every daemon runs a 256 KiB vbroadcast and a
// 4 KiB vgather on the new session; the master reports the gather to the
// FE over LMONP, and the FE detaches and destroys the session. Latencies
// run from the time a session was due, so a stall delays every later one.
// The rate sits just under saturation: an ICCL throughput loss shows up as
// a growing backlog in the tail.
#pragma once

#include <functional>
#include <set>

#include "core/be_api.hpp"
#include "workloads/common.hpp"

namespace lmon::benchmark {

namespace churn_detail {

constexpr std::size_t kBcastBytes = 256 * 1024;
constexpr std::size_t kGatherBytes = 4 * 1024;
constexpr sim::Time kInterArrival = sim::ms(5);
constexpr int kWindow = 20;  ///< arrivals per host-time window (100 ms)

struct Shared {
  Shared(const PayloadPool& pool_in, std::uint64_t seed_in, int ranks_in,
         PassResult* result_in)
      : pool(pool_in), ranks(ranks_in), seed(seed_in), result(result_in) {}

  const PayloadPool& pool;
  int ranks = 0;
  std::uint64_t seed = 0;
  PassResult* result = nullptr;
  int ready = 0;
  std::map<std::uint32_t, sim::Time> gathered;  ///< vsid -> master delivery

  [[nodiscard]] std::size_t bcast_offset(std::uint32_t vsid) const {
    return pool.offset_for(seed * 977 + vsid, kBcastBytes);
  }
  [[nodiscard]] std::size_t gather_offset(std::uint32_t vsid,
                                          std::uint32_t rank) const {
    return pool.offset_for((seed * 977 + vsid) * 131 + rank + 1,
                           kGatherBytes - 8);
  }
};

/// Runs the per-session script on every daemon when a session attaches.
class ChurnDaemon : public cluster::Program {
 public:
  explicit ChurnDaemon(Shared* shared) : shared_(shared) {}

  [[nodiscard]] std::string_view name() const override { return "churn_be"; }

  void on_start(cluster::Process& self) override {
    self_ = &self;
    be_ = std::make_unique<core::BackEnd>(self);
    core::BackEnd::Callbacks cbs;
    cbs.on_init = [](const core::Rpdtab&, const Bytes&,
                     std::function<void(Status)> done) { done(Status::ok()); };
    cbs.on_ready = [this](Status st) {
      if (st.is_ok()) {
        shared_->ready += 1;
      } else {
        shared_->result->error("churn daemon failed: " + st.to_string());
      }
    };
    cbs.on_vsession_attach = [this](std::uint32_t vsid) { run(vsid); };
    if (!be_->init(std::move(cbs)).is_ok()) self.exit(1);
  }

  static void install(cluster::Machine& machine, Shared* shared) {
    cluster::ProgramImage image;
    image.image_mb = machine.costs().tool_daemon_image_mb;
    image.factory = [shared](const std::vector<std::string>&) {
      return std::make_unique<ChurnDaemon>(shared);
    };
    machine.install_program("churn_be", std::move(image));
  }

 private:
  void run(std::uint32_t vsid) {
    const bool master = be_->is_master();
    Bytes data;
    if (master) data = shared_->pool.slice(shared_->bcast_offset(vsid), kBcastBytes);
    const Status st = be_->vbroadcast(vsid, std::move(data), [this, vsid,
                                                               master](
                                                                  const Bytes& got) {
      if (!shared_->pool.matches(got, shared_->bcast_offset(vsid), kBcastBytes)) {
        shared_->result->error("session " + std::to_string(vsid) + ": rank " +
                               std::to_string(be_->rank()) +
                               " received a corrupted broadcast");
      }
      const Status gst = be_->vgather(
          vsid, contribution(vsid, be_->rank()),
          master ? [this, vsid](auto entries) { on_gathered(vsid, entries); }
                 : std::function<void(
                       std::vector<std::pair<std::uint32_t, Bytes>>)>{});
      if (!gst.is_ok()) shared_->result->error("vgather: " + gst.to_string());
    });
    if (!st.is_ok()) shared_->result->error("vbroadcast: " + st.to_string());
  }

  /// The session id and rank, then seeded bytes: a frame delivered to the
  /// wrong session or rank is detectable from its first eight bytes.
  [[nodiscard]] Bytes contribution(std::uint32_t vsid, std::uint32_t rank) const {
    ByteWriter w(kGatherBytes);
    w.u32(vsid);
    w.u32(rank);
    Bytes b = std::move(w).take();
    const Bytes body =
        shared_->pool.slice(shared_->gather_offset(vsid, rank), kGatherBytes - 8);
    b.insert(b.end(), body.begin(), body.end());
    return b;
  }

  void on_gathered(std::uint32_t vsid,
                   const std::vector<std::pair<std::uint32_t, Bytes>>& entries) {
    bool ok = entries.size() == static_cast<std::size_t>(shared_->ranks);
    for (std::size_t k = 0; ok && k < entries.size(); ++k) {
      ok = entries[k].first == k &&
           entries[k].second == contribution(vsid, static_cast<std::uint32_t>(k));
    }
    if (!ok) {
      shared_->result->error("session " + std::to_string(vsid) +
                             ": gather holds frames of another session or rank");
    }
    shared_->gathered[vsid] = self_->sim().now();
    ByteWriter w;
    w.u32(vsid);
    const Status st = be_->send_usrdata_fe(std::move(w).take());
    if (!st.is_ok()) shared_->result->error("usrdata: " + st.to_string());
  }

  Shared* shared_;
  cluster::Process* self_ = nullptr;
  std::unique_ptr<core::BackEnd> be_;
};

/// One arrival's bookkeeping on the FE side.
struct Arrival {
  sim::Time due = 0;
  int sid = -1;
  sim::Time ready_at = -1;
  sim::Time done_at = -1;  ///< master's gather delivery
  bool finished = false;   ///< detached and destroyed (or rejected)
};

/// The owner's tree and the FE that serves the arrivals.
struct Service {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<core::FrontEnd> fe;
  cluster::Process* fe_proc = nullptr;
  int owner = -1;
};

inline Service bootstrap(Shared& shared, std::uint64_t seed) {
  Service s;
  s.cluster = std::make_unique<Cluster>(shared.ranks, 0, seed);
  ChurnDaemon::install(s.cluster->machine, &shared);
  bool done = false;
  Status status;
  s.fe_proc = &s.cluster->spawn_fe([&](cluster::Process& self) {
    s.fe = std::make_unique<core::FrontEnd>(self);
    if (!s.fe->init().is_ok()) return;
    s.owner = s.fe->create_session().value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "churn_be";
    cfg.max_tree_sessions = core::FrontEnd::kDefaultMaxSessions;
    s.fe->launch_and_spawn(s.owner, rm::JobSpec{shared.ranks, 1, "mpi_app", {}},
                           cfg, [&](Status st) {
                             status = st;
                             done = true;
                           });
  });
  if (!run_until(s.cluster->sim,
                 [&] { return done && shared.ready == shared.ranks; },
                 sim::seconds(600)) ||
      !status.is_ok()) {
    throw std::runtime_error("attach_churn: tree bootstrap failed: " +
                             status.to_string());
  }
  return s;
}

}  // namespace churn_detail

inline PassResult run_attach_churn(const Params& p) {
  using namespace churn_detail;
  PassResult r;
  const int sessions = p.ops;
  const PayloadPool pool(derive_seed(p.seed, 3), 1024 * 1024);
  std::unique_ptr<Shared> shared;
  Service svc;
  // Identical set-ups, each timed from boot through destruction; the
  // last one serves the sessions before it is destroyed. Smoke runs keep
  // the full tree and only shorten the run: on smaller trees the tuned
  // threshold leaves 4 KiB gathers eager, and the mux clearance this
  // workload checks never engages.
  for (int k = 0; k < kTreeSetups; ++k) {
    const Stopwatch watch;
    shared = std::make_unique<Shared>(pool, p.seed, 128, &r);
    svc = bootstrap(*shared, p.seed);
    if (k + 1 < kTreeSetups) {
      svc.fe.reset();
      svc.cluster.reset();
    }
    r.setups.push_back(watch.stop());
  }

  Cluster& cl = *svc.cluster;
  core::FrontEnd& fe = *svc.fe;
  std::vector<Arrival> arrivals(static_cast<std::size_t>(sessions));
  std::map<std::uint32_t, int> by_vsid;  ///< filled at Ready
  std::set<std::uint32_t> reported;      ///< master reports not yet matched
  int finished = 0;

  auto finish = [&](Arrival& a) {
    a.finished = true;
    finished += 1;
    if (a.sid >= 0) (void)fe.destroy_session(a.sid);
  };
  // Detach once both the FE's Ready and the master's report are in.
  auto maybe_detach = [&](Arrival& a) {
    if (a.ready_at < 0 || a.done_at < 0 || a.finished) return;
    fe.detach(a.sid, [&a, &finish](Status st) {
      if (!st.is_ok()) a.done_at = -1;
      finish(a);
    });
  };
  fe.set_be_usrdata_handler(svc.owner, [&](const Bytes& b) {
    ByteReader rd(b);
    const std::uint32_t vsid = rd.u32().value_or(0);
    auto it = by_vsid.find(vsid);
    if (it == by_vsid.end()) {
      reported.insert(vsid);  // the report overtook the session's Ready
      return;
    }
    Arrival& a = arrivals[static_cast<std::size_t>(it->second)];
    a.done_at = shared->gathered.at(vsid);
    maybe_detach(a);
  });

  // The arrival generator: each arrival schedules the next, at exact
  // multiples of the inter-arrival time from the first.
  const sim::Time first = cl.sim.now() + sim::ms(1);
  std::function<void(int)> arrive = [&](int i) {
    Arrival& a = arrivals[static_cast<std::size_t>(i)];
    a.due = first + kInterArrival * i;
    if (i + 1 < sessions) {
      svc.fe_proc->post(a.due + kInterArrival - cl.sim.now(),
                        [&arrive, i] { arrive(i + 1); });
    }
    auto sid = fe.create_session();
    if (!sid.is_ok()) {
      r.error("session " + std::to_string(i) + " rejected: " +
              sid.status.to_string());
      finish(a);
      return;
    }
    a.sid = sid.value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.attach_to = fe.infra_of(svc.owner);
    fe.launch_and_spawn(a.sid, rm::JobSpec{}, cfg, [&, i](Status st) {
      Arrival& me = arrivals[static_cast<std::size_t>(i)];
      if (!st.is_ok()) {
        r.error("session " + std::to_string(i) + " attach rejected: " +
                st.to_string());
        finish(me);
        return;
      }
      me.ready_at = cl.sim.now();
      const std::uint32_t vsid = fe.vsid_of(me.sid);
      by_vsid[vsid] = i;
      if (reported.erase(vsid) != 0) me.done_at = shared->gathered.at(vsid);
      maybe_detach(me);
    });
  };

  {
    Instruments inst(cl, r, p.traced, p.trace_out);
    TimedPhase timed(r);
    timed.start(cl.sim);
    svc.fe_proc->post(first - cl.sim.now(), [&arrive] { arrive(0); });
    StepProbe* probe = p.traced ? &r.probe : nullptr;
    for (int w = 0; w < sessions / kWindow; ++w) {
      const Stopwatch watch;
      const sim::Time end = first + kInterArrival * kWindow * (w + 1);
      run_until(cl.sim, [&] { return cl.sim.now() >= end; }, sim::seconds(600),
                probe);
      HostSample window = watch.stop();
      window.host *= 1e3 / kWindow;
      r.windows.push_back(window);
      inst.rotate();
    }
    if (!run_until(cl.sim, [&] { return finished == sessions; },
                   sim::seconds(600), probe)) {
      r.error("sessions still open at the end of the run");
    }
    // Detaches are fire-and-forget: let the daemons close the last streams.
    cl.sim.run(cl.sim.now() + sim::ms(50));
    timed.stop(cl.sim);
  }

  r.attempted = sessions;
  std::vector<double> attach_ms;
  for (const Arrival& a : arrivals) {
    if (a.ready_at < 0 || a.done_at < 0) {
      r.failed += 1;
      continue;
    }
    attach_ms.push_back(sim::to_ms(a.ready_at - a.due));
    r.latency_ms.push_back(sim::to_ms(a.done_at - a.due));
    r.tool_bytes += static_cast<double>(kBcastBytes) +
                    static_cast<double>(kGatherBytes) * shared->ranks;
  }
  r.layers["fe.attach_ms_p50"] = median(attach_ms);
  r.layers["fe.attach_ms_tail"] = tail(attach_ms);
  if (fe.tree_session_count(svc.owner) != 1) {
    r.error("tree still holds " +
            std::to_string(fe.tree_session_count(svc.owner)) +
            " sessions after every detach");
  }
  if (p.traced && (r.metrics.counter("iccl.mux.unbound_drops") != 0 ||
                   r.metrics.counter("iccl.mux.cts_deferred") <= 0)) {
    r.error("mux fairness: unbound_drops=" +
            std::to_string(r.metrics.counter("iccl.mux.unbound_drops")) +
            ", cts_deferred=" +
            std::to_string(r.metrics.counter("iccl.mux.cts_deferred")));
  }

  const auto t_down = HostClock::now();
  svc.fe.reset();
  svc.cluster.reset();
  r.setups.back().host += seconds_since(t_down);
  return r;
}

}  // namespace lmon::benchmark
