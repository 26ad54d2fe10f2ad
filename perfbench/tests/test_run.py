#!/usr/bin/env python3
"""Tests of the benchmark front end (perfbench/run.py).

    python3 perfbench/tests/test_run.py      # from the repository root

- Both modes print exactly the metric names BENCHMARK.json lists, in order,
  and the traced run writes a span dump whose self times are consistent.
- Run from a directory that holds only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero quickly and prints no result.

The C++ self-test (Freivalds negative test, seeded inputs, span self time)
runs inside every run.py call, so a failure there fails these tests too.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def run_bench(root, trace, seed=3, extra=()):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", "batched_pool", "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)


class MetricNames(unittest.TestCase):
    def check_mode(self, trace, key):
        with open(SPEC) as f:
            want = [m["name"] for m in json.load(f)[key]]
        spans = os.path.join(ROOT, ".bench_build", "test-spans.json")
        extra = ("--trace-out", spans) if trace else ()
        proc = run_bench(ROOT, trace, extra=extra)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), want)
        if trace:
            with open(spans) as f:
                dump = json.load(f)
            self.assertGreater(len(dump["spans"]), 0)
            for s in dump["spans"]:
                self.assertLessEqual(s["self_s"] * 1e9,
                                     s["end_ns"] - s["start_ns"] + 1)
        return result

    def test_end_to_end_names(self):
        result = self.check_mode(0, "end_to_end")
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_per_layer_names(self):
        self.check_mode(1, "per_layer")


class BenchmarkAlone(unittest.TestCase):
    def test_fails_without_library(self):
        alone = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(SPEC, alone)
        shutil.copytree(BENCH, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(alone, 0)
        shutil.rmtree(alone)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
