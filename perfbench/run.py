#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
library from ../src together with the benchmark binary (CMake, Release) in
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls only rebuild what changed.  Every call then runs the
benchmark's self-test (Freivalds negative test, seeded inputs, span self
time) and the named workload; a traced run also writes its spans to a JSON
file.  The benchmark's context line is passed through, and the last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json for --trace 0 and every
per-layer metric for --trace 1.  The printed names are checked against
BENCHMARK.json; a mismatch, a failed build or self-test, or a missing library
source tree exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, capture=False):
    """Runs cmd to completion (killing it on timeout) and returns
    (exit code, stdout).  Without capture, its stdout goes to our stderr so
    that our own stdout carries only benchmark output."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, out or ""


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found next to "
             "perfbench/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run(["cmake", "--build", out, "-j", jobs, "--target",
                   "perfbench", "perfbench_selftest"], BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")
    return out


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Parses the result line and checks its shape and metric names."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last line is not JSON: " + line[:200])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are " + ", ".join(sorted(result)))
    names = list(result["metrics"])
    want = expected_names(trace)
    if names != want:
        fail("metric names differ from BENCHMARK.json: printed %s, expected %s"
             % (names, want))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--trace-out", default="",
                    help="with --trace 1, where to write every span (default: "
                    "spans/WORKLOAD-seedN.json in the build directory)")
    args = ap.parse_args()

    out = build()
    code, _ = run([os.path.join(out, "perfbench_selftest")], 60)
    if code != 0:
        fail("self-test failed")

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.abspath(args.trace_out or os.path.join(
            out, "spans", "%s-seed%d.json" % (args.workload, args.seed)))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--trace-out", spans]
    code, stdout = run(cmd, RUN_TIMEOUT_S, capture=True)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        fail("benchmark exited with code %d" % code)
    check_result(lines[-1], args.trace == 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
