#!/usr/bin/env python3
"""Steadiness check: how the bounds in BENCHMARK.json are set and rechecked.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--seconds S] [--overhead]

Run from the root of a checkout.  For each set and each workload it runs
perfbench/run.py --runs times, each with its own seed (seeds differ
between sets), and prints for every end-to-end metric the median, the
quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and
whether the sets agree: each set's spread within the metric's bound
(setup_s exempt) and the later set's median not worse than the first's by
more than the bound.  It also checks that every run was correct and that
the share of failed operations is the same in every set.

--overhead runs every workload once more per run with --trace 1 and
reports the tracing overhead, (traced - untraced) / untraced, per metric
from the traced run's own end-to-end figures.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout}")
    traced = None
    for line in lines:
        if line.startswith("traced_end_to_end "):
            traced = json.loads(line.split(" ", 1)[1])
    return json.loads(lines[-1]), traced


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse(a, b, better):
    """Relative amount by which b is worse than a."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]

    ok = True
    for name in names:
        sets = []
        shares = []
        for s in range(args.sets):
            vals = {m["name"]: [] for m in metrics}
            traced = {m["name"]: [] for m in metrics}
            attempted = failed = 0
            for i in range(args.runs):
                seed = args.seed_base + 1000 * s + i
                res, _ = run(name, seed, seconds, 0)
                if not res["correct"]:
                    ok = False
                    print(f"{name} seed {seed}: NOT CORRECT")
                attempted += res["attempted"]
                failed += res["failed"]
                for m in metrics:
                    vals[m["name"]].append(res["metrics"][m["name"]]["value"])
                if args.overhead:
                    _, t = run(name, seed, seconds, 1)
                    for m in metrics:
                        traced[m["name"]].append(t["metrics"][m["name"]]["value"])
            sets.append((vals, traced))
            shares.append(failed / attempted)
        print(f"\n== {name}: failed share per set {shares}")
        if len(set(shares)) > 1:
            ok = False
        print(f"{'metric':24s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s} verdict")
        for m in metrics:
            n, bound = m["name"], m["bound"]
            first_median = None
            for s, (vals, traced) in enumerate(sets):
                q1, med, q3 = quartiles(vals[n])
                spread = (q3 - q1) / med
                verdict = []
                if n != "setup_s" and spread > bound:
                    verdict.append("SPREAD>BOUND")
                if spread > bound / 3:
                    verdict.append("spread>bound/3")
                if first_median is None:
                    first_median = med
                elif worse(first_median, med, m["better"]) > bound:
                    verdict.append("MEDIAN-WORSE")
                if any(v.isupper() for v in verdict):
                    ok = False
                extra = ""
                if args.overhead:
                    tmed = statistics.median(traced[n])
                    extra = f" traced {tmed:.6g} ({(tmed - med) / med:+.1%})"
                print(f"{n:24s} {s:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.1%} {bound:6.0%} {' '.join(verdict) or 'ok'}"
                      f"{extra}")
    print("\nALL AGREE" if ok else "\nDISAGREEMENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
