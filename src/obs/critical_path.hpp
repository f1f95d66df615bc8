// critical_path.hpp - attribute end-to-end session latency to the paper's
// model regions.
//
// Two complementary views of "where did the time go":
//   * extract_regions() reproduces the paper's §4 region decomposition
//     (Fig. 3: T(job), T(daemon), T(setup), T(collective), tracing, RPDTAB
//     fetch, handshake, other) from a Tracer's absorbed e0..e11 marks and
//     cost charges. bench_fig3_launchspawn prints its measured columns
//     straight from it, so model-vs-measured residuals are diagnosable per
//     PerfModel term.
//   * critical_path() walks span parent links backward from the
//     latest-ending span to its root, yielding the causal chain that
//     bounded the run (e.g. session -> engine -> cospawn -> deepest
//     tree-launch level -> slowest daemon).
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "simkernel/stats.hpp"

namespace lmon::obs {

/// Fig. 3 region durations, in seconds (same units as the bench tables).
struct RegionBreakdown {
  double total = 0;        ///< e0_fe_call .. e11_return
  double t_job = 0;        ///< RM job launch
  double t_daemon = 0;     ///< RM daemon bulk launch
  double t_setup = 0;      ///< fabric wire-up (e8..e9)
  double t_collective = 0; ///< handshake collective (bcast + gather)
  double tracing = 0;      ///< RM debug-event handling (ledger)
  double rpdtab = 0;       ///< proctable fetch (ledger)
  double handshake = 0;    ///< FE<->master handshaking share
  double other = 0;        ///< scale-independent engine bookkeeping (ledger)

  /// The LaunchMON-attributed share (Fig. 3's "lmon%" numerator).
  [[nodiscard]] double lmon_overhead() const noexcept {
    return tracing + rpdtab + handshake + other;
  }
};

/// Region decomposition over the marks/charges a Tracer absorbed from
/// Machine::mark() / Machine::charge(). `prefix` selects the daemon-side
/// mark vocabulary ("be_" for back ends, "mw_" for middleware).
[[nodiscard]] RegionBreakdown extract_regions(const Tracer& tracer,
                                              const std::string& prefix = "be_");

/// The causal chain bounding the capture: starts at the span with the
/// latest end time and follows parent links to the root. Returned
/// root-first. Empty when no spans were recorded.
[[nodiscard]] std::vector<const SpanRecord*> critical_path(
    const Tracer& tracer);

}  // namespace lmon::obs
