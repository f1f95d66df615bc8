// bench_ablation_iccl - the ICCL eager/rendezvous broadcast ablation:
// fleet-wide broadcast latency (master issue to last delivery) swept over
// payload size x fabric topology x protocol, validated point-by-point
// against core::PerfModel::collective_bcast() and crossover-by-crossover
// against collective_crossover() (the analytic answer to "where should the
// rendezvous threshold sit for this fabric").
//
// Expected shape: eager wins small payloads (no RTS/CTS round trip), but
// its per-child payload copies serialize at every parent and whole-payload
// store-and-forward stacks per level; rendezvous pays the handshake once
// and then streams zero-copy chunks that relays forward cut-through, so it
// wins from a payload the model pins per topology (deep trees cross over
// earlier than flat fan-out).
//
// Flags:
//   --json        machine-readable report (schema under golden test; see
//                 tests/integration/bench_schema_test.cpp)
//   --nodes=N     daemons per session (default 32; smoke uses 8)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/ablation_iccl_lib.hpp"
#include "common/argparse.hpp"

namespace lmon {
namespace {

void print_table(const bench::IcclAblationReport& report) {
  bench::print_title(
      "Ablation: ICCL broadcast eager vs rendezvous (model vs measured)");
  std::printf("%10s %11s %10s | %11s %11s %9s\n", "topology", "protocol",
              "payload", "measured", "model", "residual");
  for (const auto& p : report.points) {
    std::printf("%10s %11s %9zuK |", p.topology.c_str(), p.protocol.c_str(),
                p.payload_bytes / 1024);
    if (!p.measured_ok) {
      std::printf(" %10s", "FAIL");
    } else {
      std::printf(" %9.4fs", p.measured_s);
    }
    std::printf(" %10.4fs", p.model_s);
    if (p.measured_ok) {
      std::printf(" %8.1f%%", p.residual_pct);
    } else {
      std::printf(" %9s", "-");
    }
    std::printf("\n");
  }
  std::printf("\ncrossovers (eager -> rendezvous payload):\n");
  for (const auto& c : report.crossovers) {
    std::printf("  %10s  measured %8.0f B  model %8.0f B  (%+.1f%%)%s\n",
                c.topology.c_str(), c.measured_bytes, c.model_bytes,
                c.agreement_pct,
                c.rendezvous_wins_at_max ? "" : "  [rndv never wins!]");
  }
  std::printf(
      "\nscatter (model only - would a rendezvous scatter ever pay off?):\n");
  for (const auto& c : report.scatter_crossovers) {
    if (c.model_bytes > 0) {
      std::printf("  %10s  rndv wins from %8.0f B\n", c.topology.c_str(),
                  c.model_bytes);
    } else {
      std::printf("  %10s  eager wins at every swept payload\n",
                  c.topology.c_str());
    }
  }
  std::printf("  verdict: rendezvous scatter %s\n",
              report.rendezvous_scatter_ever_wins
                  ? "would win somewhere on this sweep"
                  : "never wins on this sweep - not worth implementing");
  std::printf(
      "\nmax |model - measured|: %lld ns (gate: 0 ns); max crossover "
      "disagreement: %.1f%% (gate: 15%%)\n",
      report.max_abs_gap_ns, report.max_abs_crossover_pct);
  std::printf(
      "shape: eager pays (msg-handle + payload-copy) per child per level and "
      "full store-and-forward\nper hop; rendezvous pays RTS/CTS once, then "
      "zero-copy chunks pipeline across levels. Deep\ntrees cross over at "
      "smaller payloads than flat fan-out.\n");
}

}  // namespace
}  // namespace lmon

int main(int argc, char** argv) {
  using namespace lmon;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& arg : args) {
    if (arg != "--json" && arg.rfind("--nodes=", 0) != 0 &&
        !bench::common_flag(arg)) {
      std::fprintf(stderr, "usage: %s [--json] [--nodes=N] [--trace-out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  bench::set_trace_out(args);
  bench::IcclAblationOptions opts;
  if (bench::smoke_mode()) opts = bench::IcclAblationOptions::smoke();
  opts.nodes =
      static_cast<int>(arg_int(args, "--nodes=").value_or(opts.nodes));
  if (opts.nodes < 2) {
    std::fprintf(stderr, "bad --nodes\n");
    return 2;
  }
  const bool json =
      std::find(args.begin(), args.end(), "--json") != args.end();

  const bench::IcclAblationReport report = bench::run_iccl_ablation(opts);
  if (json) {
    std::fputs(bench::to_json(report).c_str(), stdout);
  } else {
    print_table(report);
  }
  // Gate: the model lands on every measured point to the ns, model/measured
  // agreement on the crossover payload, and the headline claim - rendezvous
  // beats eager at the largest swept payload on every topology.
  return (report.max_abs_gap_ns == 0 &&
          report.max_abs_crossover_pct <= 15.0 &&
          report.rendezvous_wins_at_max_everywhere &&
          report.measurement_failures == 0)
             ? 0
             : 1;
}
