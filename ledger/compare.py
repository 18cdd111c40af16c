#!/usr/bin/env python3
"""Paired comparison of ledger runs: a parent commit against a change.

Run pairs in alternating order (parent first on even pairs, change first
on odd ones), one seed per pair, each side built from its own checkout
into its own build directory (<out>/<side>/build):

    python3 ledger/compare.py run --parent ../parent --change . \\
        --workloads bt_cohort,estimate_nodes --pairs 10 --out pairs/

Then report, one row per (workload, metric):

    python3 ledger/compare.py report --parent pairs/parent --change pairs/change \\
        --claim rows_per_s:bt_cohort

The claimed (metric, workload) counts as a gain only if the change wins
at least 9 of 10 pairs (ties count for neither side) and the medians
differ by more than the parent's interquartile range. Every other pairing
must not be worse than the parent's median by more than the metric's
bound from BENCHMARK.json; where either side's spread (IQR / median)
exceeds the bound it is "unresolved", unless every change run beats every
parent run. Ratios are change / parent, with the parent median as base.
A gain does not count if the change fails more operations: one row per
workload gives failed/attempted and incorrect runs on each side.
Exit status 1 on a regression, an unmet claim, an incorrect change run,
or more failed operations in the change than in the parent.

    python3 ledger/compare.py spread pairs/parent

prints each metric's IQR / median over a set of runs against its bound
(the steadiness test a benchmark definition must pass).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """{workload: {seed: run}} from every result.json (trace 0), where a run
    is its end-to-end metric values plus correct, attempted and failed."""
    runs = {}
    for path in sorted(Path(directory).rglob("result.json")):
        r = json.loads(path.read_text())
        if r.get("trace") or "metrics" not in r:
            continue
        run = dict(r["end_to_end"], correct=r["correct"], attempted=r["attempted"],
                   failed=r["failed"])
        runs.setdefault(r["workload"], {})[r["seed"]] = run
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bench_metrics(path):
    return json.loads(Path(path).read_text())["end_to_end"]


def cmd_run(args):
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    out = Path(args.out).resolve()
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in args.workloads.split(","):
            for side in order:
                dest = out / side / f"{w}-s{seed}"
                cmd = [sys.executable, "ledger/run.py", "--workload", w, "--seed", str(seed),
                       "--trace", "0", "--out", str(dest)]
                # Each side builds its own sources into its own directory.
                env = dict(os.environ, CARGO_TARGET_DIR=str(out / side / "build"))
                print(f"pair {i + 1}/{args.pairs} {w} seed {seed}: {side}", flush=True)
                r = subprocess.run(cmd, cwd=sides[side], env=env, stdout=subprocess.DEVNULL)
                if r.returncode != 0:
                    sys.exit(f"{side} run failed ({w}, seed {seed})")


def fmt(v):
    return f"{v:.4g}"


def cmd_report(args):
    parent, change = load_runs(args.parent), load_runs(args.change)
    claim = tuple(args.claim.split(":")) if args.claim else None
    bad = False
    print(f"{'workload':<16} {'metric':<18} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'ratio':>7} {'wins':>6}  verdict")
    for w in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[w]) & set(change[w]))
        if not seeds:
            continue
        for m in bench_metrics(args.benchmark):
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            p = [parent[w][s][name] for s in seeds]
            c = [change[w][s][name] for s in seeds]
            pq, cq = quartiles(p), quartiles(c)
            better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
            wins = sum(better(cv, pv) for pv, cv in zip(p, c))
            ratio = cq[1] / pq[1] if pq[1] else float("nan")
            worse_by = (pq[1] - cq[1]) / pq[1] if higher else (cq[1] - pq[1]) / pq[1]
            spread = max((pq[2] - pq[0]) / pq[1] if pq[1] else 0.0,
                         (cq[2] - cq[0]) / cq[1] if cq[1] else 0.0)
            if claim == (name, w):
                gain = (wins >= 0.9 * len(seeds) and abs(cq[1] - pq[1]) > pq[2] - pq[0]
                        and better(cq[1], pq[1]))
                verdict = "GAIN (claim met)" if gain else "claim NOT met"
                bad |= not gain
            elif spread > bound:
                all_better = all(better(cv, pv) for cv in c for pv in p)
                verdict = "better in every run" if all_better else f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
            elif worse_by > bound:
                verdict = f"REGRESSION ({worse_by:.1%} worse > bound {bound:.0%})"
                bad = True
            else:
                verdict = f"within bound ({-worse_by:+.1%})"
            print(f"{w:<16} {name:<18} {fmt(pq[1]) + ' [' + fmt(pq[0]) + ', ' + fmt(pq[2]) + ']':<30} "
                  f"{fmt(cq[1]) + ' [' + fmt(cq[0]) + ', ' + fmt(cq[2]) + ']':<30} "
                  f"{ratio:>7.3f} {wins:>3}/{len(seeds):<2}  {verdict}")
    print("ratio = change median / parent median (base: parent median); "
          f"n = {len(seeds) if parent and change else 0} pairs per workload")
    print()
    print(f"{'workload':<16} {'parent failed/attempted':<26} {'change failed/attempted':<26} verdict")
    for w in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[w]) & set(change[w]))
        if not seeds:
            continue
        tally = {}
        for name, side in (("parent", parent), ("change", change)):
            runs = [side[w][s] for s in seeds]
            tally[name] = (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs),
                           sum(not r["correct"] for r in runs))
        (pf, pa, pi), (cf, ca, ci) = tally["parent"], tally["change"]
        if ci:
            verdict = f"FAILED: {ci} incorrect change run(s)"
        elif cf > pf:
            verdict = "FAILED: the change fails more operations"
        else:
            verdict = "ok"
        bad |= verdict != "ok"
        print(f"{w:<16} {f'{pf:g}/{pa:g} ({pi} incorrect)':<26} "
              f"{f'{cf:g}/{ca:g} ({ci} incorrect)':<26} {verdict}")
    sys.exit(1 if bad else 0)


def cmd_spread(args):
    runs = load_runs(args.dir)
    metrics = bench_metrics(args.benchmark)
    for w in sorted(runs):
        vals = list(runs[w].values())
        print(f"{w} ({len(vals)} runs)")
        for m in metrics:
            q1, q2, q3 = quartiles([v[m["name"]] for v in vals])
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "OVER BOUND")
            print(f"  {m['name']:<18} median {q2:<12.5g} IQR/median {spread:7.2%}  bound {m['bound']:.0%}  {flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating parent/change pairs")
    r.add_argument("--parent", required=True, help="parent checkout")
    r.add_argument("--change", required=True, help="change checkout")
    r.add_argument("--workloads", required=True, help="comma-separated workload names")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=101)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report", help="compare parent and change runs")
    p.add_argument("--parent", required=True, help="directory of parent result.json files")
    p.add_argument("--change", required=True, help="directory of change result.json files")
    p.add_argument("--claim", help="claimed METRIC:WORKLOAD")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    s = sub.add_parser("spread", help="IQR / median of each metric over a set of runs")
    s.add_argument("dir")
    s.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    {"run": cmd_run, "report": cmd_report, "spread": cmd_spread}[args.cmd](args)


if __name__ == "__main__":
    main()
