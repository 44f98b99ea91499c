#!/usr/bin/env python3
"""Run one latgossip benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/latbench against the tree's src/ (CMake, RelWithDebInfo
like the repository's default build, into .bench_build/), runs the workload in its own process, checks its output
and prints every metric by name with its unit. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
metrics with --trace 1. The exit code is 0 only when every check passed.

--src and --build-dir point the same benchmark code at another source
tree (ab.py uses them); --tiny shrinks every workload for smoke tests.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(src, build_dir):
    """Configure (every time, so the build always compiles `src`), then
    build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(src, "latgossip.h")):
        fail(f"no latgossip sources at {src}")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo", f"-DLATGOSSIP_SRC={src}"],
             ["cmake", "--build", build_dir, "-j4"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "latbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--build-dir",
                    default=os.path.join(ROOT, ".bench_build", "perfbench"))
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build(os.path.abspath(args.src), os.path.abspath(args.build_dir))
    work_dir = os.path.join(os.path.abspath(args.build_dir), "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={work_dir}"]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"latbench exited {proc.returncode} without a result line")

    # A check over the whole run fails one run, unless one already failed.
    errors = list(out["errors"])
    failed = out["failed"]
    if proc.returncode != 0 and failed == 0:
        errors.append(f"latbench exited {proc.returncode}")
        failed = 1
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    pinned = golden["digests"].get(args.workload)
    if args.seed == golden["default_seed"] and not args.tiny \
            and pinned != out["digest"]:
        errors.append(f"digest {out['digest']} != pinned {pinned} "
                      f"at seed {args.seed}")
        failed = max(failed, 1)

    metrics = {}
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"latbench did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  passes {out['passes']}"
          f"  pool threads {out['threads']}  digest {out['digest']}")
    shown = out["metrics"].items()
    for name, m in sorted(shown) if args.trace else shown:
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for e in errors:
        print(f"  FAILED: {e}")
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
