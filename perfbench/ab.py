#!/usr/bin/env python3
"""A/B-compare two latgossip source trees with the same benchmark code.

    python3 perfbench/ab.py --a PARENT_TREE --b CHANGED_TREE [--pairs 10]

Each tree is a checkout (the directory holding src/). Both are built
from this perfbench directory into .bench_build/ab-a and .bench_build/ab-b.
Pair i (1-based) runs every workload of BENCHMARK.json once on each side
at seed i, for BENCHMARK.json's run_seconds, alternating which side goes
first. For each workload and end-to-end metric the printed report gives
each side's median and quartiles and the number of pairs B won, lost and
tied; B wins a pair when its value is better in
the metric's direction (BENCHMARK.json). A gain needs B to win at least
nine tenths of the pairs and the medians to differ by more than A's own
quartile spread; this script reports the numbers, the reader applies the
rule. This replaces hard-coded baseline constants as the basis for
performance claims.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_side(tree, build_dir, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--src", os.path.join(tree, "src"), "--build-dir", build_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab.py: {workload} seed {seed} failed on {tree}:\n"
                 + proc.stdout[-2000:])
    return json.loads(lines[-1])["metrics"]


def summary(values, unit):
    """Median [first quartile, third quartile] unit."""
    q1 = q3 = values[0]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}] {unit}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="baseline tree (parent)")
    ap.add_argument("--b", required=True, help="changed tree")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"a": (os.path.abspath(args.a),
                   os.path.join(ROOT, ".bench_build", "ab-a")),
             "b": (os.path.abspath(args.b),
                   os.path.join(ROOT, ".bench_build", "ab-b"))}

    runs = {w: {"a": [], "b": []} for w in workloads}
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for w in workloads:
            for side in order:
                tree, build_dir = sides[side]
                runs[w][side].append(
                    run_side(tree, build_dir, w, i + 1, seconds))
            print(f"pair {i + 1}/{args.pairs} {w} done", file=sys.stderr)

    print(f"{'workload':<14} {'metric':<14} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B won/lost/tied':<16}")
    for w in workloads:
        for m in spec["end_to_end"]:
            a = [r[m["name"]]["value"] for r in runs[w]["a"]]
            b = [r[m["name"]]["value"] for r in runs[w]["b"]]
            sign = -1.0 if m["better"] == "lower" else 1.0
            won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            lost = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
            tied = len(a) - won - lost
            print(f"{w:<14} {m['name']:<14} {summary(a, m['unit']):<34} "
                  f"{summary(b, m['unit']):<34} {won}/{lost}/{tied}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
