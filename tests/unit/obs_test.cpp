// Unit tests for the observability plane primitives: the span tracer and
// its anchor table, the metrics registry (counters/gauges/histograms and
// their JSON embedding), the critical-path walk, the per-process trace tail
// the fault-injection tests print on failure, and the Chrome-trace
// exporter's well-formedness.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/trace.hpp"
#include "simkernel/log.hpp"
#include "simkernel/simulator.hpp"
#include "tests/flight_check.hpp"

namespace lmon {
namespace {

/// Advances simulated time to `when` (spans timestamp via sim.now()).
void advance_to(sim::Simulator& sim, sim::Time when) {
  sim.schedule_at(when, [] {});
  sim.run();
}

TEST(Tracer, SpansRecordTimesAndParents) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);

  const obs::SpanId root = tracer.begin_span("root", "test", 0, 1);
  advance_to(sim, sim::ms(5));
  const obs::SpanId child =
      tracer.begin_span("child", "test", 0, 1, root, "k=v");
  advance_to(sim, sim::ms(9));
  tracer.end_span(child);
  advance_to(sim, sim::ms(12));
  tracer.end_span(root, "done");

  const obs::SpanRecord* r = tracer.find_span("root");
  const obs::SpanRecord* c = tracer.find_span("child");
  ASSERT_NE(r, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(r->parent, obs::kNoSpan);
  EXPECT_EQ(c->parent, r->id);
  EXPECT_EQ(c->begin, sim::ms(5));
  EXPECT_EQ(c->end, sim::ms(9));
  EXPECT_EQ(c->duration(), sim::ms(4));
  EXPECT_EQ(c->detail, "k=v");
  EXPECT_EQ(r->end, sim::ms(12));
  EXPECT_EQ(r->detail, "done");
  EXPECT_FALSE(r->open());

  // span() resolves ids; kNoSpan and unknown ids are null.
  EXPECT_EQ(tracer.span(c->parent), r);
  EXPECT_EQ(tracer.span(obs::kNoSpan), nullptr);
  EXPECT_EQ(tracer.span(9999), nullptr);
}

TEST(Tracer, EndSpanIsIdempotentAndIgnoresUnknownIds) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);
  const obs::SpanId id = tracer.begin_span("s", "test", 0, 1);
  advance_to(sim, sim::ms(3));
  tracer.end_span(id);
  advance_to(sim, sim::ms(7));
  tracer.end_span(id);          // second close must not move the end time
  tracer.end_span(obs::kNoSpan);  // and bogus ids must be no-ops
  tracer.end_span(42);
  EXPECT_EQ(tracer.find_span("s")->end, sim::ms(3));
}

TEST(Tracer, AnchorsResolveAcrossComponents) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);
  EXPECT_EQ(tracer.anchor("spawn:s:host0"), obs::kNoSpan);
  const obs::SpanId id = tracer.begin_span("launch", "rm", 0, 1);
  tracer.set_anchor("spawn:s:host0", id);
  EXPECT_EQ(tracer.anchor("spawn:s:host0"), id);
  tracer.set_anchor("spawn:s:host0", obs::kNoSpan);  // re-anchoring wins
  EXPECT_EQ(tracer.anchor("spawn:s:host0"), obs::kNoSpan);
}

TEST(Tracer, MarksAndChargesAreAbsorbed) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);
  advance_to(sim, sim::ms(2));
  tracer.mark("e0_fe_call");
  advance_to(sim, sim::ms(10));
  tracer.mark("e11_return");
  tracer.charge("tracing", sim::ms(3));
  tracer.charge("tracing", sim::ms(1));

  EXPECT_EQ(tracer.marks().between("e0_fe_call", "e11_return"), sim::ms(8));
  EXPECT_EQ(tracer.charges().total("tracing"), sim::ms(4));
  EXPECT_EQ(tracer.charges().events("tracing"), 2u);

  // Marks double as instants so they land in the exported trace.
  bool seen = false;
  for (const auto& i : tracer.instants()) {
    if (i.name == "e0_fe_call") seen = true;
  }
  EXPECT_TRUE(seen);
}

TEST(Tracer, LogBridgeMirrorsLogLinesAndRestoresTap) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);
  {
    obs::LogBridge bridge(tracer);
    EXPECT_TRUE(sim::Log::has_tap());
    sim::LogLine(sim::LogLevel::Info, sim.now(), "unit_test")
        << "hello bridge";
  }
  EXPECT_FALSE(sim::Log::has_tap());
  bool seen = false;
  for (const auto& i : tracer.instants()) {
    if (i.category == "log" && i.detail.find("hello bridge") !=
                                   std::string::npos) {
      seen = true;
    }
  }
  EXPECT_TRUE(seen);
}

TEST(CriticalPath, WalksParentChainFromLatestEnd) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);
  const obs::SpanId a = tracer.begin_span("a", "t", 0, 1);
  const obs::SpanId b = tracer.begin_span("b", "t", 0, 1, a);
  const obs::SpanId c = tracer.begin_span("c", "t", 0, 1, b);
  const obs::SpanId d = tracer.begin_span("d", "t", 0, 1, a);  // side branch
  advance_to(sim, sim::ms(4));
  tracer.end_span(d);
  advance_to(sim, sim::ms(6));
  tracer.end_span(b);
  advance_to(sim, sim::ms(8));
  tracer.end_span(a);
  advance_to(sim, sim::ms(9));
  tracer.end_span(c);  // latest end -> the a->b->c chain bounds the run

  const auto chain = obs::critical_path(tracer);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0]->id, a);
  EXPECT_EQ(chain[1]->id, b);
  EXPECT_EQ(chain[2]->id, c);
}

TEST(CriticalPath, EmptyTracerYieldsEmptyChain) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);
  EXPECT_TRUE(obs::critical_path(tracer).empty());
}

TEST(Metrics, CountersGaugesHistograms) {
  obs::Metrics m;
  EXPECT_EQ(m.counter("x"), 0.0);
  m.add("x");
  m.add("x", 2.5);
  EXPECT_EQ(m.counter("x"), 3.5);

  m.set_gauge("depth", 7);
  m.set_gauge("depth", 3);  // gauges overwrite
  EXPECT_EQ(m.gauge("depth"), 3.0);

  EXPECT_EQ(m.histogram("lat"), nullptr);
  m.observe("lat", 10);
  m.observe("lat", 2);
  m.observe("lat", 30);
  const obs::Metrics::Histogram* h = m.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum, 42.0);
  EXPECT_EQ(h->min, 2.0);
  EXPECT_EQ(h->max, 30.0);
}

TEST(Metrics, ToJsonIsSortedAndEmbeddable) {
  obs::Metrics m;
  m.add("b.second");
  m.add("a.first", 2);
  m.set_gauge("g", 1.5);
  m.observe("h", 4);
  const std::string json = m.to_json(2);

  // Sorted by name: a.first before b.second.
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  // Embeddable: starts at the brace (no leading padding), no trailing
  // newline - callers splice it after `"metrics": `.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(TraceTail, GroupsByPidOldestFirstAndBoundsEachPid) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);
  tracer.name_lane(0, 20, "raw_heal/20");
  // pid 20: a span around one instant and one per-message send; pid 10:
  // more steps than the bound; one mark, which is not process-bound.
  const obs::SpanId heal =
      tracer.begin_span("iccl.heal", "iccl", 0, 20, obs::kNoSpan, "parent=1");
  advance_to(sim, sim::ms(1));
  tracer.instant("iccl.heal.adoption", "iccl", 0, 20, obs::kNoSpan,
                 "heal: adopted orphan rank 3");
  tracer.instant("net.send", "net", 0, 20, obs::kNoSpan, "to=1 bytes=8");
  for (int i = 0; i < 5; ++i) {
    advance_to(sim, sim::ms(2 + i));
    tracer.instant("step", "t", 1, 10, obs::kNoSpan, "n=" + std::to_string(i));
  }
  tracer.mark("e0_fe_call");
  advance_to(sim, sim::ms(7));
  tracer.begin_span("daemon", "daemon", 1, 10, obs::kNoSpan, "rank=2");
  // Recorded after the end but at the same instant: shown inside the span.
  advance_to(sim, sim::ms(8));
  tracer.end_span(heal, "adopted_by=0");
  tracer.instant("iccl.heal.slot_resolved", "iccl", 0, 20, obs::kNoSpan,
                 "heal: slot for dead child 1 resolved by coverage");

  EXPECT_EQ(testing::tail_dump(tracer, 4),
            "=== pid 10 (2 older steps dropped) ===\n"
            "[    0.004000s] step n=2\n"
            "[    0.005000s] step n=3\n"
            "[    0.006000s] step n=4\n"
            "[    0.007000s] begin daemon rank=2\n"
            "=== raw_heal/20 ===\n"
            "[    0.000000s] begin iccl.heal\n"
            "[    0.001000s] iccl.heal.adoption heal: adopted orphan rank 3\n"
            "[    0.008000s] iccl.heal.slot_resolved heal: slot for dead child "
            "1 resolved by coverage\n"
            "[    0.008000s] end iccl.heal adopted_by=0\n");
}

TEST(Perfetto, ExportIsBalancedAndClampsOpenSpans) {
  sim::Simulator sim;
  obs::Tracer tracer(sim);
  tracer.name_track(0, "node0");
  const obs::SpanId a = tracer.begin_span("done", "t", 0, 1);
  advance_to(sim, sim::ms(2));
  tracer.instant("tick", "t", 0, 1, a);
  advance_to(sim, sim::ms(5));
  tracer.end_span(a);
  tracer.begin_span("still_open", "t", 0, 1);  // never closed

  const std::string json = obs::to_chrome_trace_json(tracer);
  int depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"done\""), std::string::npos);
  EXPECT_NE(json.find("\"tick\""), std::string::npos);
  // Open spans are exported (clamped to capture end) and labeled.
  EXPECT_NE(json.find("[open]"), std::string::npos);
}

}  // namespace
}  // namespace lmon
