#!/usr/bin/env python3
"""Tests for tools/compare_bench.py (stdlib only, registered with ctest).

Builds synthetic baseline/current BENCH_kernels.json pairs and checks the
exit-code contract: 0 when every normalized ratio is within tolerance, 1 on
a >tolerance regression, 2 when the baseline has no comparable points.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "compare_bench.py"


def bench_json(points):
    """points: iterable of (kernel, tile, gflops)."""
    return {"results": [{"kernel": k, "tile": t, "gflops": g}
                        for k, t, g in points]}


class CompareBenchTest(unittest.TestCase):
    def run_tool(self, baseline, current, extra=()):
        """current: one run, or a list of runs (one --current each)."""
        runs = current if isinstance(current, list) else [current]
        with tempfile.TemporaryDirectory() as d:
            bpath = pathlib.Path(d) / "baseline.json"
            bpath.write_text(json.dumps(baseline))
            args = [sys.executable, str(TOOL), "--baseline", str(bpath)]
            for i, run in enumerate(runs):
                cpath = pathlib.Path(d) / f"current_{i}.json"
                cpath.write_text(json.dumps(run))
                args += ["--current", str(cpath)]
            proc = subprocess.run([*args, *extra], capture_output=True,
                                  text=True)
        return proc

    def test_identical_runs_pass(self):
        data = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0),
                           ("scalar", 32, 3.0), ("avx2", 32, 15.0)])
        proc = self.run_tool(data, data)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("within tolerance", proc.stdout)

    def test_small_drop_within_tolerance_passes(self):
        baseline = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        # Ratio drops from 4.0x to 3.6x: a 10% regression, under the 15%
        # default tolerance.
        current = bench_json([("scalar", 8, 2.0), ("avx2", 8, 7.2)])
        proc = self.run_tool(baseline, current)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_large_regression_fails(self):
        baseline = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        # Ratio drops from 4.0x to 3.0x: a 25% regression.
        current = bench_json([("scalar", 8, 2.0), ("avx2", 8, 6.0)])
        proc = self.run_tool(baseline, current)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)

    def test_machine_speed_is_normalized_away(self):
        # The current "machine" is 3x faster across the board: every raw
        # number changed, every ratio is identical, so the gate passes.
        baseline = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        current = bench_json([("scalar", 8, 6.0), ("avx2", 8, 24.0)])
        proc = self.run_tool(baseline, current)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_missing_point_is_skipped_not_failed(self):
        baseline = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0),
                               ("neon", 8, 6.0)])
        current = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        proc = self.run_tool(baseline, current)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("skipped", proc.stdout)

    def test_empty_baseline_is_usage_error(self):
        baseline = bench_json([("scalar", 8, 2.0)])  # nothing to normalize
        current = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        proc = self.run_tool(baseline, current)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    def test_custom_tolerance(self):
        baseline = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        current = bench_json([("scalar", 8, 2.0), ("avx2", 8, 7.2)])  # -10%
        proc = self.run_tool(baseline, current, extra=("--tolerance", "0.05"))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)

    # ---- several runs: the gate reads the per-point median ----

    def test_one_outlier_run_among_several_passes(self):
        # Five sweeps; one of them (a noisy-neighbour moment) drops the AVX2
        # ratio by 40%.  The median of the five stays at 4.0x: pass.
        baseline = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        good = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        outlier = bench_json([("scalar", 8, 2.0), ("avx2", 8, 4.8)])
        proc = self.run_tool(baseline, [good, outlier, good, good, good])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("median of 5 run(s)", proc.stdout)

    def test_regression_in_the_median_fails(self):
        # Three of five runs sit 25% low: the median moves, so the gate
        # fails even though two runs look healthy.
        baseline = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        good = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        slow = bench_json([("scalar", 8, 2.0), ("avx2", 8, 6.0)])
        proc = self.run_tool(baseline, [good, slow, slow, good, slow])
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)

    def test_runs_are_normalized_before_the_median(self):
        # Each run is normalized by its own scalar row: a run on a 3x faster
        # machine contributes the same ratio, not a 3x larger one.
        baseline = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        slow_host = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0)])
        fast_host = bench_json([("scalar", 8, 6.0), ("avx2", 8, 24.0)])
        proc = self.run_tool(baseline, [slow_host, fast_host, fast_host])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("x  4.00", proc.stdout)

    # ---- modgemm strategy rows (normalized by same-run modgemm-morton) ----

    def test_strategy_rows_pass_when_ratio_holds(self):
        # A 2x faster machine moves every absolute number, but the
        # packfused/morton ratio is unchanged: the gate passes.
        baseline = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0),
                               ("modgemm-morton", 513, 3.0),
                               ("modgemm-packfused", 513, 3.1)])
        current = bench_json([("scalar", 8, 4.0), ("avx2", 8, 16.0),
                              ("modgemm-morton", 513, 6.0),
                              ("modgemm-packfused", 513, 6.2)])
        proc = self.run_tool(baseline, current)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_strategy_ratio_regression_fails(self):
        # Pack-fused drops from parity with Morton to 25% slower while the
        # leaf-kernel points are untouched.
        baseline = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0),
                               ("modgemm-morton", 513, 3.0),
                               ("modgemm-packfused", 513, 3.0)])
        current = bench_json([("scalar", 8, 2.0), ("avx2", 8, 8.0),
                              ("modgemm-morton", 513, 3.0),
                              ("modgemm-packfused", 513, 2.25)])
        proc = self.run_tool(baseline, current)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("modgemm-packfused", proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)

    # ---- batched rows (normalized by same-run batched-loop) ----

    def test_batched_rows_normalize_by_batched_loop(self):
        # A uniformly 2x faster machine keeps both batched ratios, so the
        # gate passes even though every absolute number moved.
        baseline = bench_json([("batched-loop", 128, 4.0),
                               ("batched-serial", 128, 4.4),
                               ("batched-pool", 128, 12.0)])
        current = bench_json([("batched-loop", 128, 8.0),
                              ("batched-serial", 128, 8.8),
                              ("batched-pool", 128, 24.0)])
        proc = self.run_tool(baseline, current)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_batched_pool_scaling_regression_fails(self):
        # The pool row falls from a 3x to a 1.5x speedup over the same-run
        # per-item loop: a scaling loss, gated regardless of raw GFLOP/s.
        baseline = bench_json([("batched-loop", 128, 4.0),
                               ("batched-pool", 128, 12.0)])
        current = bench_json([("batched-loop", 128, 4.0),
                              ("batched-pool", 128, 6.0)])
        proc = self.run_tool(baseline, current)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("batched-pool", proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)

    def test_morton_base_row_is_not_gated_by_scalar(self):
        # modgemm-morton is a base row: it must neither be normalized by the
        # scalar leaf kernel nor gated itself, even when its absolute number
        # halves while scalar holds still.
        baseline = bench_json([("scalar", 513, 2.0),
                               ("modgemm-morton", 513, 4.0),
                               ("modgemm-packfused", 513, 4.0)])
        current = bench_json([("scalar", 513, 2.0),
                              ("modgemm-morton", 513, 2.0),
                              ("modgemm-packfused", 513, 2.0)])
        proc = self.run_tool(baseline, current)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
