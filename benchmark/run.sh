#!/usr/bin/env bash
# run.sh - builds the benchmark (always Release, into build-bench/) and runs
# it. Two forms:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--trace-out=PATH]
#       One workload in one process. The last line of standard output is the
#       JSON result; the exit code is non-zero when a check failed.
#
#   benchmark/run.sh [--seed=N] [--seconds=S] [--traced] [--smoke] [--out=DIR]
#       Every workload, one after another, each in its own process. Prints
#       `workload metric value unit` lines and writes DIR/<workload>.json
#       (default DIR: build-bench/results). --traced also reruns each
#       workload traced with the same seed and writes
#       DIR/<workload>.layers.json. --smoke runs toy sizes and validates each
#       <workload>.json against golden/result.schema.txt. Exits non-zero when
#       any check failed.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"
workloads=(launch_spawn collective_rounds attach_churn stat_attach)

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: the program's sources are missing (no $root/src)" >&2
  exit 2
fi

# Build quietly; show the log only when the build fails.
mkdir -p "$build"
jobs=$(nproc 2>/dev/null || echo 2)
if (( jobs > 4 )); then jobs=4; fi
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } \
       >"$build/build.log" 2>&1 ||
   ! cmake --build "$build" -j "$jobs" --target lmon_bench \
       >>"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "run.sh: build failed" >&2
  exit 2
fi
bench="$build/lmon_bench"

for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    exec "$bench" "$@"
  fi
done

seed=1
seconds=15
traced=0
smoke=0
out="$build/results"
for arg in "$@"; do
  case "$arg" in
    --seed=*) seed="${arg#--seed=}" ;;
    --seconds=*) seconds="${arg#--seconds=}" ;;
    --traced) traced=1 ;;
    --smoke) smoke=1 ;;
    --out=*) out="${arg#--out=}" ;;
    *)
      echo "usage: $0 [--seed=N] [--seconds=S] [--traced] [--smoke] [--out=DIR]" >&2
      echo "   or: $0 --workload W --seed N --seconds S --trace 0|1" >&2
      exit 2
      ;;
  esac
done
mkdir -p "$out"
size=()
if (( smoke )); then size=(--smoke); fi

failed=0
# Runs one workload process; prints its metric lines, keeps its JSON.
run_one() {
  local w=$1 trace=$2 dest=$3 log
  log=$("$bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" "${size[@]}") || failed=1
  if [[ -z "$log" ]]; then
    failed=1
    return
  fi
  sed '$d' <<<"$log"
  tail -n 1 <<<"$log" >"$dest"
}
for w in "${workloads[@]}"; do
  run_one "$w" 0 "$out/$w.json"
  if (( traced )); then run_one "$w" 1 "$out/$w.layers.json"; fi
done

if (( smoke )); then
  python3 - "$here/golden/result.schema.txt" "${workloads[@]/#/$out/}" <<'PY' || failed=1
import json, sys

# The json_shape rule of the repo's bench goldens: object keys in emitted
# order, array element shapes deduped in first-seen order.
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

golden = open(sys.argv[1]).read().strip()
bad = 0
for prefix in sys.argv[2:]:
    live = shape(json.load(open(prefix + ".json")))
    if live != golden:
        print(f"smoke: {prefix}.json drifted from the golden schema\n{live}",
              file=sys.stderr)
        bad = 1
sys.exit(bad)
PY
fi

if (( failed )); then
  echo "run.sh: a workload failed its checks" >&2
  exit 1
fi
