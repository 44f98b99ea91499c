#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny workload sizes.

    python3 perfbench/test_perfbench.py

The first test builds the benchmark (like run.py) if it is not built.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts that must repeat exactly for a fixed seed.
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"
          and not m["name"].startswith("sim.pool.samples")]


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
        timeout=900)
    return proc


def result(proc):
    lines = proc.stdout.strip().splitlines()
    digest = lines[0].split("digest ")[1].strip()
    return lines, json.loads(lines[-1]), digest


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, 1, trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    lines, res, _ = result(proc)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
                    text = "\n".join(lines[:-1])
                    for m in wanted:
                        self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
                        self.assertRegex(text, rf"{m['name']}\s+\S+ {m['unit']}")
                    if trace == 0:
                        # failed_frac is printed, not in the result line,
                        # whose failed/attempted carry it.
                        self.assertRegex(text, r"failed_frac\s+0 ratio")
                        for m in wanted:
                            self.assertGreater(res["metrics"][m["name"]]["value"], 0)


class DigestTest(unittest.TestCase):
    def test_seed_decides_digest_and_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, d1 = result(run(workload, 1, 1))
                _, again, d1b = result(run(workload, 1, 1))
                _, other, d2 = result(run(workload, 2, 1))
                self.assertEqual(d1, d1b)
                self.assertNotEqual(d1, d2)
                for name in COUNTS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     again["metrics"][name]["value"], name)


class MissingSourcesTest(unittest.TestCase):
    def test_benchmark_alone_exits_nonzero_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                cwd=tmp, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
