#!/usr/bin/env python3
"""Steadiness check: run every workload as two interleaved sets (ABAB).

Run from the repository root:

    python3 perfbench/steady.py [--runs 5] [--workloads a,b] [--trace 0|1]

Each workload is run 2 x RUNS times, alternating set A and set B, each run
with another seed (A: 1..RUNS, B: RUNS+1..2 RUNS), through `run.py` with
the `run_seconds` of BENCHMARK.json. For every metric it prints each set's
median and quartiles, the spread (interquartile distance over the
median) of each set and of all runs together, and how far B's median is
worse than A's, against the metric's bound. A metric agrees when every
spread (set_up time excepted) and the shift stay within its bound; the
target while tuning is a spread below a third of the bound. The raw
results are written as JSON (`--out`, default
`.bench_work/steady-<trace>.json`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: {' '.join(cmd)} exited {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    results = {}
    for w in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, seed in (("A", 1 + i), ("B", 1 + args.runs + i)):
                r = run_once(w, seed, seconds, args.trace)
                sets[name].append({"seed": seed, **r})
                print(f"{w} set {name} seed {seed}: attempted {r['attempted']} failed "
                      f"{r['failed']} correct {r['correct']}", file=sys.stderr)
        results[w] = sets

    out = args.out or os.path.join(ROOT, ".bench_work", f"steady-{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)

    ok = True
    for w in workloads:
        sets = results[w]
        share = {k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v)
                 for k, v in sets.items()}
        print(f"\n{w}: failed share A {share['A']:.6f} B {share['B']:.6f}"
              f"{'' if share['A'] == share['B'] else '  DIFFERENT'}")
        ok &= share["A"] == share["B"] and all(r["correct"] for v in sets.values() for r in v)
        print(f"  {'metric':28} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30}"
              f" {'sprA':>6} {'sprB':>6} {'sprAll':>6} {'worse':>6} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            va = [r["metrics"][name]["value"] for r in sets["A"]]
            vb = [r["metrics"][name]["value"] for r in sets["B"]]
            qa, qb = quartiles(va), quartiles(vb)
            sa, sb, sall = spread(va), spread(vb), spread(va + vb)
            ma, mb = qa[1], qb[1]
            worse = ((mb - ma) if m["better"] == "lower" else (ma - mb)) / abs(ma) if ma else 0.0
            verdict = ""
            if bound is not None:
                spreads = [] if name == "setup_s" else [sa, sb, sall]
                agree = all(s <= bound for s in spreads) and worse <= bound
                steady = all(s < bound / 3 for s in spreads)
                verdict = "ok" if agree and steady else ("agrees" if agree else "FAILS")
                ok &= agree
            print(f"  {name:28} {ma:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(61)
                  + f" {mb:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(31)
                  + f" {sa:6.3f} {sb:6.3f} {sall:6.3f} {worse:+6.3f} "
                  + (f"{bound:6.2f}" if bound is not None else "     -") + f"  {verdict}")
    print(f"\nraw results: {out}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
