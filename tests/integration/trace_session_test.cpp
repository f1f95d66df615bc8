// trace_session_test - the observability plane end to end: run a real FE
// launch-and-spawn session with a Tracer attached, export a Perfetto trace,
// and check the acceptance properties of the obs subsystem:
//
//   1. Spans exist for the bootstrap (session/engine/cospawn), the RM
//      per-level tree fan-out, the daemons, and the handshake collective -
//      with correct causal parent links across process boundaries.
//   2. The critical-path extractor's region sums reproduce the paper's
//      e0..e11 region arithmetic *exactly* (double equality, not tolerance -
//      both read the same marks).
//   3. Tracing is purely observational: a traced run and an untraced run of
//      the same cluster finish at the same simulated instant after the same
//      number of simulator events.
//
// The exported Chrome-trace JSON's structural skeleton is held to a golden
// (tests/golden/trace_event.schema.txt), same regime as the bench reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string_view>
#include <vector>

#include "bench/ablation_rsh_lib.hpp"  // bench::json_shape
#include "core/fe_api.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/trace.hpp"
#include "tests/test_util.hpp"

#ifndef LMON_SOURCE_DIR
#error "LMON_SOURCE_DIR must point at the repo root (set by CMakeLists.txt)"
#endif

namespace lmon {
namespace {

using testing::TestCluster;

struct SessionRun {
  bool ok = false;
  sim::Time done_at = 0;              ///< FE completion (simulated)
  std::size_t executed_events = 0;    ///< simulator events up to completion
  obs::Metrics metrics;
  /// Inspect-only after run_session returns (the simulator it references is
  /// gone, but spans/instants/marks are plain data).
  std::unique_ptr<obs::Tracer> tracer;
};

/// Runs one hello_be launch-and-spawn session at `ndaemons` scale. The
/// tracer and metrics are attached only when `traced`.
SessionRun run_session(int ndaemons, bool traced,
                       comm::LaunchStrategyKind strategy =
                           comm::LaunchStrategyKind::RmBulk) {
  TestCluster tc(ndaemons);
  SessionRun run;
  std::unique_ptr<obs::LogBridge> bridge;
  if (traced) {
    run.tracer = std::make_unique<obs::Tracer>(tc.simulator);
    bridge = std::make_unique<obs::LogBridge>(*run.tracer);
    tc.machine.set_tracer(run.tracer.get());
    tc.machine.set_metrics(&run.metrics);
  }

  bool done = false;
  Status status;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    cfg.launch_strategy = strategy;
    rm::JobSpec job{ndaemons, 8, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status st) {
      status = st;
      run.done_at = tc.simulator.now();
      done = true;
    });
  });
  tc.run_until([&] { return done; }, sim::seconds(600));
  run.ok = done && status.is_ok();
  run.executed_events = tc.simulator.executed_events();

  // Detach before the cluster (and its simulator) dies; the tracer is only
  // inspected from here on.
  tc.machine.set_tracer(nullptr);
  tc.machine.set_metrics(nullptr);
  return run;
}

/// All spans with this exact name.
std::vector<const obs::SpanRecord*> spans_named(const obs::Tracer& tracer,
                                                std::string_view name) {
  std::vector<const obs::SpanRecord*> out;
  for (const auto& s : tracer.spans()) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

TEST(TraceSession, BootstrapSpansHaveCorrectParentLinks) {
  const SessionRun run = run_session(16, /*traced=*/true);
  ASSERT_TRUE(run.ok);
  const obs::Tracer& tr = *run.tracer;

  // FE session -> engine -> cospawn chain, crossing the FE/engine process
  // boundary via the "session:<cookie>" anchor.
  const obs::SpanRecord* session = tr.find_span("session");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->parent, obs::kNoSpan);
  EXPECT_FALSE(session->open());

  const obs::SpanRecord* engine = tr.find_span("engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->parent, session->id);

  for (std::string_view stage :
       {"engine.rm_launch", "engine.rpdtab_fetch", "engine.cospawn"}) {
    const obs::SpanRecord* s = tr.find_span(stage);
    ASSERT_NE(s, nullptr) << stage;
    EXPECT_EQ(s->parent, engine->id) << stage;
    EXPECT_FALSE(s->open()) << stage;
  }

  // The RM's bulk daemon launch hangs off the cospawn span (the strategy
  // layer anchored "cospawn:<session>" before calling into the RM).
  const obs::SpanRecord* cospawn = tr.find_span("engine.cospawn");
  const obs::SpanRecord* daemon_launch = tr.find_span("rm.daemon_launch");
  ASSERT_NE(daemon_launch, nullptr);
  EXPECT_EQ(daemon_launch->parent, cospawn->id);
}

TEST(TraceSession, FanoutDaemonAndCollectiveSpans) {
  const SessionRun run = run_session(16, /*traced=*/true);
  ASSERT_TRUE(run.ok);
  const obs::Tracer& tr = *run.tracer;
  const obs::SpanRecord* job_launch = tr.find_span("rm.job_launch");
  const obs::SpanRecord* daemon_launch = tr.find_span("rm.daemon_launch");
  ASSERT_NE(job_launch, nullptr);
  ASSERT_NE(daemon_launch, nullptr);

  // Per-level fan-out: the launcher runs one slurmd tree per phase (the
  // MPI job, then the daemon bulk launch), so exactly one tree-launch
  // level roots on each launch span; every other level parents on the
  // level that forwarded its chunk.
  const auto tree = spans_named(tr, "rm.tree_launch");
  ASSERT_GE(tree.size(), 2u);
  int job_roots = 0;
  int daemon_roots = 0;
  int chained = 0;
  for (const obs::SpanRecord* level : tree) {
    EXPECT_FALSE(level->open());
    if (level->parent == job_launch->id) {
      ++job_roots;
      continue;
    }
    if (level->parent == daemon_launch->id) {
      ++daemon_roots;
      continue;
    }
    const obs::SpanRecord* parent = tr.span(level->parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->name, "rm.tree_launch");
    ++chained;
  }
  EXPECT_EQ(job_roots, 1);
  EXPECT_EQ(daemon_roots, 1);
  EXPECT_GT(chained, 0);

  // One daemon span per node, each parented on the tree-launch level that
  // spawned it - on the same node (the level launches its first host
  // locally).
  const auto daemons = spans_named(tr, "daemon");
  EXPECT_EQ(daemons.size(), 16u);
  for (const obs::SpanRecord* d : daemons) {
    const obs::SpanRecord* parent = tr.span(d->parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->name, "rm.tree_launch");
    EXPECT_EQ(parent->node, d->node);
  }

  // The handshake collective hangs off a daemon span.
  const auto collectives = spans_named(tr, "iccl.handshake_collective");
  ASSERT_FALSE(collectives.empty());
  for (const obs::SpanRecord* c : collectives) {
    const obs::SpanRecord* parent = tr.span(c->parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->name, "daemon");
    EXPECT_EQ(parent->node, c->node);
  }

  // critical_path() walks back to a root span.
  const auto chain = obs::critical_path(tr);
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(chain.front()->parent, obs::kNoSpan);
}

TEST(TraceSession, TreeRshFanoutSpansChainPerLevel) {
  const SessionRun run =
      run_session(16, /*traced=*/true, comm::LaunchStrategyKind::TreeRsh);
  ASSERT_TRUE(run.ok);
  const obs::Tracer& tr = *run.tracer;

  // The FE-side tree launcher roots on the engine's cospawn span.
  const obs::SpanRecord* cospawn = tr.find_span("engine.cospawn");
  const obs::SpanRecord* tree = tr.find_span("rsh.tree_launch");
  ASSERT_NE(cospawn, nullptr);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->parent, cospawn->id);
  EXPECT_FALSE(tree->open());

  // Every remote agent parents either on the FE launcher (level 1) or on
  // the agent that rsh'd it (deeper levels), and every daemon on the agent
  // that spawned it locally.
  const auto agents = spans_named(tr, "rsh.agent");
  ASSERT_FALSE(agents.empty());
  for (const obs::SpanRecord* a : agents) {
    const obs::SpanRecord* parent = tr.span(a->parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_TRUE(parent->name == "rsh.tree_launch" ||
                parent->name == "rsh.agent")
        << "agent parented on " << parent->name;
  }
  const auto daemons = spans_named(tr, "daemon");
  EXPECT_EQ(daemons.size(), 16u);
  for (const obs::SpanRecord* d : daemons) {
    const obs::SpanRecord* parent = tr.span(d->parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->name, "rsh.agent");
    EXPECT_EQ(parent->node, d->node);
  }
}

TEST(TraceSession, CriticalPathReproducesFig3Arithmetic) {
  const SessionRun run = run_session(16, /*traced=*/true);
  ASSERT_TRUE(run.ok);

  // The paper's region arithmetic, verbatim: the reference the extractor
  // is held to.
  const sim::Timeline& tl = run.tracer->marks();
  const sim::CostLedger& lg = run.tracer->charges();
  const double total = sim::to_seconds(tl.between("e0_fe_call", "e11_return"));
  const double t_job = sim::to_seconds(tl.between("t_job_begin", "t_job_end"));
  const double t_daemon =
      sim::to_seconds(tl.between("t_daemon_begin", "t_daemon_end"));
  const double t_setup =
      sim::to_seconds(tl.between("be_e8_setup_begin", "be_e9_setup_done"));
  const double t_collective = sim::to_seconds(
      tl.between("be_t_collective_begin", "be_t_collective_end"));
  const double tracing = sim::to_seconds(lg.total("tracing"));
  const double rpdtab = sim::to_seconds(lg.total("rpdtab_fetch"));
  double handshake = sim::to_seconds(
      tl.between("be_e10_ready", "e11_return") +
      tl.between("e7_handshake_begin", "be_t_collective_begin") -
      tl.between("be_e8_setup_begin", "be_e9_setup_done"));
  if (handshake < 0) handshake = 0;
  const double other = sim::to_seconds(lg.total("other"));

  // The extractor (fed by the marks the Tracer absorbed through
  // Machine::mark/charge) must reproduce it exactly - no tolerance.
  const obs::RegionBreakdown r = obs::extract_regions(*run.tracer);
  EXPECT_EQ(r.total, total);
  EXPECT_EQ(r.t_job, t_job);
  EXPECT_EQ(r.t_daemon, t_daemon);
  EXPECT_EQ(r.t_setup, t_setup);
  EXPECT_EQ(r.t_collective, t_collective);
  EXPECT_EQ(r.tracing, tracing);
  EXPECT_EQ(r.rpdtab, rpdtab);
  EXPECT_EQ(r.handshake, handshake);
  EXPECT_EQ(r.other, other);
  EXPECT_EQ(r.lmon_overhead(), tracing + rpdtab + handshake + other);
  EXPECT_GT(total, 0.0);
  EXPECT_GT(t_daemon, 0.0);
}

TEST(TraceSession, TracingAddsZeroObservableCost) {
  const SessionRun traced = run_session(8, /*traced=*/true);
  const SessionRun plain = run_session(8, /*traced=*/false);
  ASSERT_TRUE(traced.ok);
  ASSERT_TRUE(plain.ok);

  // Same completion instant after the same number of simulator events:
  // the observability plane neither perturbs timing nor schedules work.
  EXPECT_EQ(traced.done_at, plain.done_at);
  EXPECT_EQ(traced.executed_events, plain.executed_events);
  EXPECT_GT(plain.executed_events, 0u);
}

TEST(TraceSession, MetricsAndDaemonSpansCaptureTheRun) {
  SessionRun run = run_session(8, /*traced=*/true);
  ASSERT_TRUE(run.ok);

  EXPECT_GT(run.metrics.counter("net.messages_total"), 0.0);
  EXPECT_GT(run.metrics.counter("net.bytes_total"), 0.0);
  EXPECT_GT(run.metrics.counter("rm.tree_launch.requests"), 0.0);
  const obs::Metrics::Histogram* bytes = run.metrics.histogram("net.message_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->count, 0u);

  // Every daemon process has its closed `daemon` span on its own lane: the
  // post-mortem tail of any daemon starts from it.
  std::set<std::uint64_t> daemon_pids;
  for (const auto& [lane, name] : run.tracer->lane_names()) {
    if (name.rfind("hello_be/", 0) == 0) daemon_pids.insert(lane.second);
  }
  EXPECT_EQ(daemon_pids.size(), 8u);
  const auto spans = spans_named(*run.tracer, "daemon");
  for (const std::uint64_t pid : daemon_pids) {
    EXPECT_TRUE(std::any_of(spans.begin(), spans.end(),
                            [pid](const obs::SpanRecord* s) {
                              return s->pid == pid && !s->open();
                            }))
        << "no daemon span for pid " << pid;
  }
}

TEST(TraceSession, LibraryExportsNoTraceOfItsOwn) {
  // Whoever owns the Machine attaches a tracer and exports it; the library
  // never does, so an exported LMON_TRACE_OUT leaves an untraced session
  // untraced and writes nothing.
  const std::string path = ::testing::TempDir() + "lmon_fe_trace_out.json";
  std::filesystem::remove(path);
  const char* prev = std::getenv("LMON_TRACE_OUT");
  const std::string saved = prev != nullptr ? prev : "";
  ::setenv("LMON_TRACE_OUT", path.c_str(), 1);

  TestCluster tc(4);
  bool done = false;
  Status status;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    fe->launch_and_spawn(sid.value, rm::JobSpec{4, 2, "mpi_app", {}}, cfg,
                         [&](Status st) {
                           status = st;
                           done = true;
                         });
  });
  tc.run_until([&] { return done; }, sim::seconds(600));
  if (prev != nullptr) {
    ::setenv("LMON_TRACE_OUT", saved.c_str(), 1);
  } else {
    ::unsetenv("LMON_TRACE_OUT");
  }

  ASSERT_TRUE(done && status.is_ok()) << status.to_string();
  EXPECT_EQ(tc.machine.tracer(), nullptr);
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

TEST(TraceSession, ConcurrentVirtualSessionsCarryPerSessionLabels) {
  // Persistent multiplexed service attribution: two virtual sessions on
  // one tree each get a closed "vsession" span (parented on the owner's
  // session span, labeled with its vsid) and their fabric traffic lands
  // under iccl.s<vsid>.* counters alongside the aggregate.
  TestCluster tc(8);
  obs::Tracer tracer(tc.simulator);
  obs::Metrics metrics;
  tc.machine.set_tracer(&tracer);
  tc.machine.set_metrics(&metrics);

  int vready = 0;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    (void)fe->init();
    const int owner = fe->create_session().value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{8, 2, "mpi_app", {}};
    fe->launch_and_spawn(owner, job, cfg, [&, owner](Status st) {
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      // Two concurrent virtual attaches onto the owner's tree.
      for (int i = 0; i < 2; ++i) {
        const int vsid = fe->create_session().value;
        core::FrontEnd::SpawnConfig vcfg;
        vcfg.attach_to = fe->infra_of(owner);
        fe->launch_and_spawn(vsid, rm::JobSpec{}, vcfg, [&](Status vst) {
          EXPECT_TRUE(vst.is_ok()) << vst.to_string();
          ++vready;
        });
      }
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return vready == 2; }));

  const obs::SpanRecord* session = tracer.find_span("session");
  ASSERT_NE(session, nullptr);
  const auto vspans = spans_named(tracer, "vsession");
  ASSERT_EQ(vspans.size(), 2u);
  bool saw1 = false;
  bool saw2 = false;
  for (const obs::SpanRecord* v : vspans) {
    EXPECT_FALSE(v->open());
    EXPECT_EQ(v->parent, session->id);
    saw1 = saw1 || v->detail.find("vsid=1") != std::string::npos;
    saw2 = saw2 || v->detail.find("vsid=2") != std::string::npos;
  }
  EXPECT_TRUE(saw1) << "no vsession span labeled vsid=1";
  EXPECT_TRUE(saw2) << "no vsession span labeled vsid=2";

  // Per-session fabric attribution (the attach-ack gather rides the
  // virtual session's stream key) plus the FE-side attach counter; no
  // frame was ever dropped for want of a session binding.
  EXPECT_EQ(metrics.counter("fe.vattach"), 2.0);
  EXPECT_EQ(metrics.counter("iccl.s1.gather_contributions"), 8.0);
  EXPECT_EQ(metrics.counter("iccl.s2.gather_contributions"), 8.0);
  EXPECT_EQ(metrics.counter("iccl.mux.unbound_drops"), 0.0);

  tc.machine.set_tracer(nullptr);
  tc.machine.set_metrics(nullptr);
}

TEST(TraceSession, PerfettoExportMatchesGoldenSchema) {
  SessionRun run = run_session(8, /*traced=*/true);
  ASSERT_TRUE(run.ok);

  const std::string json = obs::to_chrome_trace_json(*run.tracer);
  const std::string live_shape = bench::json_shape(json);

  const std::string golden_path =
      std::string(LMON_SOURCE_DIR) + "/tests/golden/trace_event.schema.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string golden = buf.str();
  while (!golden.empty() && (golden.back() == '\n' || golden.back() == '\r')) {
    golden.pop_back();
  }
  EXPECT_EQ(live_shape, golden)
      << "Chrome-trace export schema drifted.\nlive skeleton:\n"
      << live_shape << "\nif intentional, update the golden file.";

  // And the file-writing path round-trips the same bytes.
  const std::string out_path =
      ::testing::TempDir() + "trace_session_test.trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(*run.tracer, out_path).is_ok());
  std::ifstream back(out_path);
  std::ostringstream written;
  written << back.rdbuf();
  EXPECT_EQ(written.str(), json);
}

}  // namespace
}  // namespace lmon
