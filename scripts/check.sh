#!/usr/bin/env bash
# check.sh - the repo's CI gate: configure + build (warnings are errors) +
# full ctest. Run from anywhere; builds out-of-source into build-check/.
#
# Modes:
#   (default)      full gate: configure + -Werror build + entire ctest suite
#   --bench-smoke  build the Release preset and run only the `bench-smoke`
#                  ctest label: every bench_* binary at minimal scale
#                  (LMON_BENCH_SMOKE=1), so bench bit-rot is caught in
#                  seconds without paying for the full sweeps.
#   --trace-smoke  build the Release preset, run one traced bench
#                  (bench_fig3_launchspawn --trace-out=...) at smoke scale,
#                  and validate the exported Chrome-trace JSON against the
#                  golden structural schema (tests/golden/
#                  trace_event.schema.txt) - catches exporter bit-rot the
#                  same way the bench --json goldens catch report drift.
#   --fault-smoke  build the Release preset and run only the fault-injection
#                  surface: the self-heal suite (which pins the broadcast and
#                  gather replay counters), the ICCL protocol fault cases (a
#                  child dying mid-rendezvous, downstream and upstream), the
#                  subtree-reparent math units, the tree-link core (dial,
#                  ready latch, heal climb), the TBON overlay heal test, the
#                  trace-tail dump those suites print on failure, and the
#                  availability bench at smoke scale - the fast "did a
#                  refactor break failure recovery" gate.
#   --mux-smoke    build the Release preset and run only the multiplexed-
#                  service surface: the virtual-session integration suite,
#                  the session-table knob/reuse tests, the ICCL case that
#                  sees the root's gather clearance defer and grant across
#                  contending sessions, and the mux ablation bench at smoke
#                  scale - the fast "did a refactor break session
#                  multiplexing" gate.
#   --work         run the repo benchmark at smoke size, traced, for seed 1
#                  (benchmark/run.sh --smoke --traced --seed=1) and compare its
#                  deterministic work counters - simkernel.events, host.allocs,
#                  host.alloc_mb, cluster.messages and cluster.bytes of each
#                  workload - with tests/golden/work_counts.txt. Fails when any
#                  counter moved more than 0.5% from the golden either way: a
#                  rise is more work, and a fall left in place is slack that a
#                  later rise could hide in. These counts are exact for a
#                  seed, so they show a change in work without the alternated
#                  wall-clock pairs benchmark/compare.py needs. A change that
#                  moves them writes the live counts
#                  (build-bench/work/work_counts.txt) over the golden and says
#                  why in CHANGES.md.
#   --sim          build the Release preset, run every bench that has a
#                  --json report (ablation autotune, heal, iccl, mux and rsh;
#                  fig5_jobsnap; fig6_stat) at smoke size (LMON_BENCH_SMOKE=1)
#                  and compare each report byte for byte with
#                  tests/golden/sim/<bench>.json. Every report must say
#                  "deterministic": true: it holds only simulated time and
#                  model values, which are exact for the code, so any
#                  difference is a change in simulated behaviour. On a
#                  mismatch the live reports land in build-release/sim/; a
#                  change that means to move simulated time copies them over
#                  the goldens and says why in CHANGES.md.
#   --sanitize     build the ASan+UBSan preset (build-sanitize/) and run
#                  every unit and integration suite under it; any
#                  sanitizer report fails the run. The protocol decoders
#                  (RPDTAB, LMONP, TBON packets, tool filter inputs) read raw
#                  byte spans, ICCL payload buffers are shared views that
#                  outlive the process that sent them (every daemon's RPDTAB
#                  views the handshake broadcast), and the raw-ICCL fault and
#                  mux harnesses tear daemons down mid-round, and every
#                  scheduled event lives in sim::Task's placement-new inline
#                  storage, which is what this gate watches.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-check}
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}

if [[ "${1:-}" == "--bench-smoke" ]]; then
  cmake --preset release
  cmake --build --preset release -j "$JOBS"
  ctest --test-dir build-release -L bench-smoke --output-on-failure -j "$JOBS"
  exit 0
fi

if [[ "${1:-}" == "--fault-smoke" ]]; then
  cmake --preset release
  cmake --build --preset release -j "$JOBS" \
    --target self_heal_test iccl_rendezvous_test comm_topology_test \
    tree_node_test tbon_net_test obs_test bench_ablation_heal
  build-release/self_heal_test
  build-release/iccl_rendezvous_test \
    --gtest_filter='*IcclGatherFault.*:IcclProtocol.MidRendezvous*'
  build-release/comm_topology_test --gtest_filter='HealMath.*'
  build-release/tree_node_test --gtest_filter='TreeNode.*'
  build-release/tbon_net_test --gtest_filter='TbonNet.HealedOverlay*'
  build-release/obs_test --gtest_filter='TraceTail.*'
  LMON_BENCH_SMOKE=1 build-release/bench_ablation_heal
  echo "fault-smoke OK"
  exit 0
fi

if [[ "${1:-}" == "--mux-smoke" ]]; then
  cmake --preset release
  cmake --build --preset release -j "$JOBS" \
    --target mux_session_test multi_session_test iccl_rendezvous_test \
    bench_ablation_mux
  build-release/mux_session_test
  build-release/multi_session_test \
    --gtest_filter='MultiSession.SessionBound*:MultiSession.Destroyed*'
  build-release/iccl_rendezvous_test \
    --gtest_filter='IcclProtocol.ContendingSessionsTakeTurnsOnTheRootClearance'
  LMON_BENCH_SMOKE=1 build-release/bench_ablation_mux
  echo "mux-smoke OK"
  exit 0
fi

if [[ "${1:-}" == "--work" ]]; then
  out=build-bench/work
  rm -rf "$out"
  benchmark/run.sh --smoke --traced --seed=1 "--out=$out" >/dev/null
  python3 - "$out" tests/golden/work_counts.txt <<'PY'
import json, sys

out, golden_path = sys.argv[1], sys.argv[2]
counters = ["simkernel.events", "host.allocs", "host.alloc_mb",
            "cluster.messages", "cluster.bytes"]
workloads = ["launch_spawn", "collective_rounds", "attach_churn", "stat_attach"]

def fmt(v):
    return str(int(v)) if float(v).is_integer() else f"{v:.4f}"

golden, header = {}, []
for line in open(golden_path):
    line = line.strip()
    if line.startswith("#"):
        header.append(line)
    elif line:
        w, name, value = line.split()
        golden[(w, name)] = float(value)

live_lines, bad = header[:], 0
for w in workloads:
    metrics = json.load(open(f"{out}/{w}.layers.json"))["metrics"]
    for name in counters:
        value = metrics[name]["value"]
        live_lines.append(f"{w} {name} {fmt(value)}")
        want = golden.get((w, name))
        if want is None:
            print(f"work: {w} {name}: no golden value", file=sys.stderr)
            bad = 1
            continue
        change = (value - want) / want * 100 if want else 0.0
        verdict = "ok"
        if value > want * 1.005:
            verdict, bad = "ROSE", 1
        elif value < want * 0.995:
            verdict, bad = "FELL", 1
        print(f"{w:18} {name:17} {fmt(want):>12} -> {fmt(value):>12} "
              f"({change:+.2f}%) {verdict}")

with open(f"{out}/work_counts.txt", "w") as f:
    f.write("".join(l + "\n" for l in live_lines))
if bad:
    sys.exit(f"work: a counter moved from {golden_path} by more than 0.5%; "
             f"live counts in {out}/work_counts.txt")
print("work OK")
PY
  exit 0
fi

if [[ "${1:-}" == "--sim" ]]; then
  benches=(bench_ablation_autotune bench_ablation_heal bench_ablation_iccl
           bench_ablation_mux bench_ablation_rsh bench_fig5_jobsnap
           bench_fig6_stat)
  cmake --preset release
  cmake --build --preset release -j "$JOBS" --target "${benches[@]}"
  out=build-release/sim
  rm -rf "$out"
  mkdir -p "$out"
  bad=0
  for b in "${benches[@]}"; do
    LMON_BENCH_SMOKE=1 build-release/"$b" --json > "$out/$b.json"
    if ! grep -q '"deterministic": true' "$out/$b.json"; then
      echo "sim: $b does not report \"deterministic\": true" >&2
      bad=1
    elif cmp -s "$out/$b.json" "tests/golden/sim/$b.json"; then
      echo "sim: $b identical"
    else
      echo "sim: $b DIFFERS from tests/golden/sim/$b.json" >&2
      diff "tests/golden/sim/$b.json" "$out/$b.json" | head -n 20 >&2 || true
      bad=1
    fi
  done
  if [[ $bad != 0 ]]; then
    echo "sim: simulated results moved; live reports in $out/" >&2
    exit 1
  fi
  echo "sim OK: ${#benches[@]} reports match tests/golden/sim/"
  exit 0
fi

if [[ "${1:-}" == "--sanitize" ]]; then
  tests=()
  for src in tests/unit/*.cpp tests/integration/*.cpp; do
    tests+=("$(basename "$src" .cpp)")
  done
  cmake --preset sanitize
  cmake --build --preset sanitize -j "$JOBS" --target "${tests[@]}"
  export ASAN_OPTIONS=${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}
  for t in "${tests[@]}"; do
    echo "== $t"
    build-sanitize/"$t" --gtest_brief=1
  done
  echo "sanitize OK: ${#tests[@]} suites"
  exit 0
fi

if [[ "${1:-}" == "--trace-smoke" ]]; then
  cmake --preset release
  cmake --build --preset release -j "$JOBS"
  trace_out=build-release/trace_smoke.json
  rm -f "$trace_out"
  LMON_BENCH_SMOKE=1 build-release/bench_fig3_launchspawn \
    "--trace-out=$trace_out" >/dev/null
  [[ -s "$trace_out" ]] || { echo "trace-smoke: no trace exported" >&2; exit 1; }
  python3 - "$trace_out" tests/golden/trace_event.schema.txt <<'PY'
import json, sys

# Mirrors bench::json_shape (bench/ablation_rsh_lib.hpp): object keys in
# emitted order, array element shapes deduped in first-seen order.
def shape(v):
    if isinstance(v, dict):
        return "{" + ",".join(f"{k}:{shape(x)}" for k, x in v.items()) + "}"
    if isinstance(v, list):
        seen, shapes = set(), []
        for x in v:
            s = shape(x)
            if s not in seen:
                seen.add(s)
                shapes.append(s)
        return "[" + "|".join(shapes) + "]"
    if isinstance(v, bool):
        return "bool"
    if v is None:
        return "null"
    if isinstance(v, (int, float)):
        return "num"
    return "str"

trace = json.load(open(sys.argv[1]))
events = trace.get("traceEvents")
if not isinstance(events, list) or not events:
    sys.exit("trace-smoke: exported trace has no traceEvents")
phases = {e.get("ph") for e in events}
missing = {"M", "X", "i"} - phases
if missing:
    sys.exit(f"trace-smoke: missing event phases {sorted(missing)}")
# Same structural-skeleton regime as the bench --json goldens; the golden
# is shared with tests/integration/trace_session_test.cpp.
live = shape(trace)
golden = open(sys.argv[2]).read().strip()
if live != golden:
    sys.exit("trace-smoke: trace schema drifted from "
             f"tests/golden/trace_event.schema.txt\nlive skeleton:\n{live}")
print(f"trace-smoke OK: {len(events)} events, schema matches golden")
PY
  exit 0
fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DLMON_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
