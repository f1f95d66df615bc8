#!/usr/bin/env python3
"""compare.py - parent-vs-change verdicts under the BENCHMARK.json bounds.

    python3 benchmark/compare.py --parent P1 P2 ... --change C1 C2 ...

Each directory holds one run of every workload (<workload>.json, as
`run.sh --out=DIR` writes them). Runs pair up in the order given (P1 with
C1, and so on); alternate which side runs first when making them. For every
workload and end-to-end metric this prints each side's median and quartiles,
the share of pairs the change won, and a verdict:

  improved    at least 10 pairs, the change won at least 9/10 of them (ties
              count for neither), the medians differ by more than the
              parent's interquartile range, and no more operations failed
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  unresolved  the parent's own interquartile range is wider than the bound
              and not every change run beat every parent run
  same        otherwise

Exits 1 when any verdict is `regressed`, 2 on bad input.
"""
import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def die(msg):
    print(f"compare: {msg}", file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load(dirs, workload):
    runs = []
    for d in dirs:
        path = pathlib.Path(d) / f"{workload}.json"
        if not path.exists():
            die(f"missing {path}")
        runs.append(json.loads(path.read_text()))
    return runs


def verdict(par, chg, par_failed, chg_failed, bound, lower_better):
    sign = 1 if lower_better else -1
    p1, pm, p3 = quartiles(par)
    _, cm, _ = quartiles(chg)
    pairs = list(zip(par, chg))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if sign * (cm - pm) > bound * abs(pm):
        return "regressed", wins, len(pairs)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(cm - pm) > p3 - p1 and chg_failed <= par_failed):
        return "improved", wins, len(pairs)
    all_better = all(sign * (p - c) > 0 for p in par for c in chg)
    if pm != 0 and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "same", wins, len(pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    if len(args.parent) != len(args.change):
        die("give as many change runs as parent runs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload':18} {'metric':16} {'parent q1/med/q3':>34} "
          f"{'change q1/med/q3':>34} {'won':>7}  verdict")
    for wl in spec["workloads"]:
        par_runs = load(args.parent, wl["name"])
        chg_runs = load(args.change, wl["name"])
        par_failed = sum(r["failed"] for r in par_runs)
        chg_failed = sum(r["failed"] for r in chg_runs)
        for m in spec["end_to_end"]:
            par = [r["metrics"][m["name"]]["value"] for r in par_runs]
            chg = [r["metrics"][m["name"]]["value"] for r in chg_runs]
            v, wins, n = verdict(par, chg, par_failed, chg_failed, m["bound"],
                                 m["better"] == "lower")
            regressed |= v == "regressed"
            fmt = lambda q: "/".join(f"{x:.5g}" for x in q)
            print(f"{wl['name']:18} {m['name']:16} {fmt(quartiles(par)):>34} "
                  f"{fmt(quartiles(chg)):>34} {wins:>3}/{n:<3}  {v}")
        if chg_failed > par_failed:
            print(f"{wl['name']:18} more operations failed: "
                  f"{chg_failed} vs {par_failed}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
