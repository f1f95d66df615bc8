#include "obs/critical_path.hpp"

#include <algorithm>

#include "simkernel/time.hpp"

namespace lmon::obs {

RegionBreakdown extract_regions(const Tracer& tracer,
                                const std::string& prefix) {
  // The integration gate (trace_session_test) asserts exact equality
  // against a verbatim copy of this arithmetic, so keep the two in step.
  const sim::Timeline& marks = tracer.marks();
  const sim::CostLedger& charges = tracer.charges();
  RegionBreakdown r;
  r.total = sim::to_seconds(marks.between("e0_fe_call", "e11_return"));
  r.t_job = sim::to_seconds(marks.between("t_job_begin", "t_job_end"));
  r.t_daemon =
      sim::to_seconds(marks.between("t_daemon_begin", "t_daemon_end"));
  r.t_setup = sim::to_seconds(
      marks.between(prefix + "e8_setup_begin", prefix + "e9_setup_done"));
  r.t_collective = sim::to_seconds(marks.between(
      prefix + "t_collective_begin", prefix + "t_collective_end"));
  r.tracing = sim::to_seconds(charges.total("tracing"));
  r.rpdtab = sim::to_seconds(charges.total("rpdtab_fetch"));
  r.handshake = sim::to_seconds(
      marks.between(prefix + "e10_ready", "e11_return") +
      marks.between("e7_handshake_begin", prefix + "t_collective_begin") -
      marks.between(prefix + "e8_setup_begin", prefix + "e9_setup_done"));
  if (r.handshake < 0) r.handshake = 0;
  r.other = sim::to_seconds(charges.total("other"));
  return r;
}

std::vector<const SpanRecord*> critical_path(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  if (spans.empty()) return {};

  // Latest end bounds the run; ties resolve to the earliest-recorded span
  // (deterministic).
  const SpanRecord* tail = nullptr;
  sim::Time tail_end = -1;
  for (const SpanRecord& s : spans) {
    if (s.open()) continue;
    if (s.end > tail_end) {
      tail_end = s.end;
      tail = &s;
    }
  }
  if (tail == nullptr) tail = &spans.front();

  std::vector<const SpanRecord*> chain;
  for (const SpanRecord* s = tail; s != nullptr;
       s = tracer.span(s->parent)) {
    chain.push_back(s);
    if (chain.size() > spans.size()) break;  // cycle guard (corrupt links)
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace lmon::obs
